//! Enclave launch, isolated execution, and ECall counting.

use crate::attest::{AttestationRootKey, Quote, Report};
use crate::epc::EpcConfig;
use crate::measure::{EnclaveImage, Measurement};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use vif_crypto::hmac::HmacSha256;

/// Takes `m`'s exclusive lock, taking over a poisoned one: a closure that
/// panics inside [`Enclave::ecall`] must not leave the enclave unusable for
/// every later call (the service catches a panicking worker and carries
/// on).
fn lock<T>(m: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    m.write().unwrap_or_else(|e| e.into_inner())
}

/// Takes `m`'s shared lock, taking over a poisoned one as [`lock`] does.
fn lock_shared<T>(m: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    m.read().unwrap_or_else(|e| e.into_inner())
}

/// A simulated SGX-capable platform (one physical machine).
///
/// Owns the per-platform attestation key (derived from the simulation's
/// [`AttestationRootKey`], standing in for the EPID provisioning step) and
/// launches enclaves.
#[derive(Debug, Clone)]
pub struct SgxPlatform {
    platform_id: u64,
    platform_key: [u8; 32],
    epc: EpcConfig,
    next_enclave_id: Arc<AtomicU64>,
}

impl SgxPlatform {
    /// Provisions a platform: derives its attestation key from the root.
    pub fn new(platform_id: u64, epc: EpcConfig, root: &AttestationRootKey) -> Self {
        SgxPlatform {
            platform_id,
            platform_key: root.derive_platform_key(platform_id),
            epc,
            next_enclave_id: Arc::new(AtomicU64::new(1)),
        }
    }

    /// The platform identifier (stands in for the EPID group id).
    pub fn platform_id(&self) -> u64 {
        self.platform_id
    }

    /// The EPC configuration of this platform (the budget an enclave's
    /// working set is held against).
    pub fn epc_config(&self) -> EpcConfig {
        self.epc
    }

    /// Launches an enclave from `image` with initial protected `state`.
    ///
    /// The returned [`Enclave`] owns the state; the host can only reach it
    /// through [`Enclave::ecall`].
    pub fn launch<T>(&self, image: EnclaveImage, state: T) -> Enclave<T> {
        Enclave {
            id: self.next_enclave_id.fetch_add(1, Ordering::Relaxed),
            measurement: image.measurement(),
            image,
            platform_id: self.platform_id,
            platform_key: self.platform_key,
            state: RwLock::new(state),
            ecalls: AtomicU64::new(0),
        }
    }
}

/// A running enclave holding protected state `T`.
///
/// Isolation is enforced by construction: `state` is private and only
/// reachable through [`ecall`], which also counts the transition, or from
/// the enclave's own data-path thread ([`in_enclave_thread`], no
/// transition). This is the simulation analogue of the hardware guarantee
/// that "a malicious filtering network cannot tamper" with the filter
/// logic (§III). The ECall count is all the enclave keeps about itself:
/// tests use it to pin §V-A's "one ECall to launch the filter thread",
/// i.e. no ECall per packet.
///
/// [`ecall`] and [`in_enclave_thread`] hold the state exclusively, so the
/// packet path and every mutating ECall exclude each other and every
/// reader. [`ecall_shared`] enters for a read only, and any number of
/// those run at once. That models SGX's thread control structures: an
/// enclave built with several TCSs admits one concurrent ECall per TCS,
/// and ECalls that only read enclave state need nothing more to run side
/// by side (an audit exports a slice's two logs this way).
///
/// [`ecall`]: Enclave::ecall
/// [`ecall_shared`]: Enclave::ecall_shared
/// [`in_enclave_thread`]: Enclave::in_enclave_thread
#[derive(Debug)]
pub struct Enclave<T> {
    id: u64,
    measurement: Measurement,
    image: EnclaveImage,
    platform_id: u64,
    platform_key: [u8; 32],
    state: RwLock<T>,
    ecalls: AtomicU64,
}

impl<T> Enclave<T> {
    /// The enclave instance id (unique per platform).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The enclave's code measurement.
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// The image this enclave was launched from.
    pub fn image(&self) -> &EnclaveImage {
        &self.image
    }

    /// Enters the enclave, giving the closure exclusive access to
    /// protected state.
    ///
    /// Counts one ECall; returns the closure's result.
    pub fn ecall<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.ecalls.fetch_add(1, Ordering::Relaxed);
        let mut guard = lock(&self.state);
        f(&mut guard)
    }

    /// Enters the enclave for a read only: the closure sees protected
    /// state through `&T`, alongside any other `ecall_shared`, and waits
    /// out (and holds off) [`ecall`](Enclave::ecall) and
    /// [`in_enclave_thread`](Enclave::in_enclave_thread).
    ///
    /// Counts one ECall; returns the closure's result.
    pub fn ecall_shared<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.ecalls.fetch_add(1, Ordering::Relaxed);
        let guard = lock_shared(&self.state);
        f(&guard)
    }

    /// Accesses protected state from the enclave's own data-path thread
    /// *without* a world switch.
    ///
    /// VIF's filter thread is launched with a single ECall at startup and
    /// then loops inside the enclave, polling software rings — "VIF only
    /// needs one ECall to launch the filter thread" and "makes no OCalls"
    /// (§V-A). Use [`ecall`](Enclave::ecall) for host-initiated control
    /// operations, and this for per-packet work that stays inside.
    pub fn in_enclave_thread<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = lock(&self.state);
        f(&mut guard)
    }

    /// ECalls made into this enclave so far.
    pub fn ecalls(&self) -> u64 {
        self.ecalls.load(Ordering::Relaxed)
    }

    /// Produces an attestation quote binding `report_data` (e.g., the hash
    /// of the enclave's channel public key) to this enclave's measurement.
    ///
    /// Signed with the platform attestation key, verifiable only by the
    /// [`AttestationService`](crate::attest::AttestationService).
    pub fn quote(&self, report_data: [u8; 64]) -> Quote {
        let report = Report {
            measurement: self.measurement,
            enclave_id: self.id,
            report_data,
        };
        let signature = HmacSha256::mac(&self.platform_key, &report.encode());
        Quote {
            report,
            platform_id: self.platform_id,
            signature,
        }
    }

    /// Tears down the enclave and returns its protected state (simulation
    /// convenience; real enclaves destroy state at `EREMOVE`).
    pub fn into_state(self) -> T {
        self.state.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attest::AttestationService;

    fn platform() -> (SgxPlatform, AttestationRootKey) {
        let root = AttestationRootKey::new([1u8; 32]);
        (
            SgxPlatform::new(42, EpcConfig::paper_default(), &root),
            root,
        )
    }

    #[test]
    fn ecall_reaches_state_and_counts() {
        let (p, _) = platform();
        let e = p.launch(EnclaveImage::new("t", 1, vec![0; 128]), vec![1u32, 2]);
        let sum: u32 = e.ecall(|v| {
            v.push(3);
            v.iter().sum()
        });
        assert_eq!(sum, 6);
        assert_eq!(e.ecalls(), 1);
        // The enclave's own thread enters without a transition.
        assert_eq!(e.in_enclave_thread(|v| v.len()), 3);
        assert_eq!(e.ecalls(), 1);
    }

    #[test]
    fn panicking_ecall_leaves_the_enclave_usable() {
        let (p, _) = platform();
        let e = p.launch(EnclaveImage::new("t", 1, vec![0; 128]), vec![1u32]);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.ecall(|v| {
                v.push(2);
                panic!("enclave entry fails mid-call");
            })
        }));
        assert!(caught.is_err());
        assert_eq!(e.ecall(|v| v.clone()), vec![1, 2]);
        assert_eq!(e.in_enclave_thread(|v| v.len()), 2);
        assert_eq!(e.ecalls(), 2);
    }

    /// Bound on every wait below: a regression fails the test instead of
    /// hanging it.
    const WAIT: std::time::Duration = std::time::Duration::from_secs(10);

    #[test]
    fn shared_ecalls_run_at_the_same_time() {
        use std::sync::mpsc::channel;
        let (p, _) = platform();
        let e = p.launch(EnclaveImage::new("t", 1, vec![]), 7u32);
        let (to_a, at_a) = channel();
        let (to_b, at_b) = channel();
        // Each closure announces itself, then waits inside the enclave for
        // the other's announcement: both return only if both were inside
        // at once.
        let e = &e;
        let met = std::thread::scope(|s| {
            let a = s.spawn(move || {
                e.ecall_shared(|v| {
                    to_b.send(*v).unwrap();
                    at_a.recv_timeout(WAIT).is_ok()
                })
            });
            let b = s.spawn(move || {
                e.ecall_shared(|v| {
                    to_a.send(*v).unwrap();
                    at_b.recv_timeout(WAIT).is_ok()
                })
            });
            [a.join().unwrap(), b.join().unwrap()]
        });
        assert_eq!(met, [true, true], "the shared entries serialized");
        assert_eq!(e.ecalls(), 2);
    }

    #[test]
    fn exclusive_ecall_waits_out_shared_ones() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (p, _) = platform();
        let e = p.launch(EnclaveImage::new("t", 1, vec![]), 0u32);
        let (held_tx, held) = channel();
        let (release_tx, release) = channel::<()>();
        let (entered_tx, entered) = channel();
        let e = &e;
        std::thread::scope(|s| {
            s.spawn(move || {
                e.ecall_shared(|v| {
                    held_tx.send(*v).unwrap();
                    release.recv_timeout(WAIT).unwrap();
                })
            });
            held.recv_timeout(WAIT).unwrap();
            s.spawn(move || {
                e.ecall(|v| {
                    *v += 1;
                    entered_tx.send(()).unwrap();
                })
            });
            // While the reader is inside, the writer must not get in.
            assert_eq!(
                entered.recv_timeout(std::time::Duration::from_millis(100)),
                Err(RecvTimeoutError::Timeout),
                "an exclusive ECall entered beside a shared one"
            );
            release_tx.send(()).unwrap();
            entered.recv_timeout(WAIT).unwrap();
        });
        assert_eq!(e.ecall_shared(|v| *v), 1);
        assert_eq!(e.ecalls(), 3);
    }

    #[test]
    fn unique_enclave_ids() {
        let (p, _) = platform();
        let a = p.launch(EnclaveImage::new("t", 1, vec![]), ());
        let b = p.launch(EnclaveImage::new("t", 1, vec![]), ());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn quote_round_trip_through_ias() {
        let (p, root) = platform();
        let image = EnclaveImage::new("filter", 3, b"code".to_vec());
        let e = p.launch(image.clone(), ());
        let quote = e.quote([9u8; 64]);
        let ias = AttestationService::new(root);
        let report = ias.verify_quote(&quote).unwrap();
        assert_eq!(report.quote.report.measurement, image.measurement());
        assert_eq!(report.quote.report.report_data, [9u8; 64]);
    }

    #[test]
    fn quote_from_unprovisioned_platform_rejected() {
        let root_a = AttestationRootKey::new([1u8; 32]);
        let root_b = AttestationRootKey::new([2u8; 32]);
        let p = SgxPlatform::new(7, EpcConfig::paper_default(), &root_b);
        let e = p.launch(EnclaveImage::new("t", 1, vec![]), ());
        let ias = AttestationService::new(root_a);
        assert!(ias.verify_quote(&e.quote([0u8; 64])).is_err());
    }

    #[test]
    fn into_state_returns_protected_data() {
        let (p, _) = platform();
        let e = p.launch(EnclaveImage::new("t", 1, vec![]), String::from("secret"));
        assert_eq!(e.into_state(), "secret");
    }
}
