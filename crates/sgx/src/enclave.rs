//! Enclave launch, isolated execution, and transition accounting.

use crate::attest::{AttestationRootKey, Quote, Report};
use crate::epc::{EpcConfig, EpcUsage};
use crate::measure::{EnclaveImage, Measurement};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use vif_crypto::hmac::HmacSha256;

/// Cost of one ECall (host → enclave) transition in simulated nanoseconds.
///
/// Measured SGX world-switch costs are ≈8,000–14,000 cycles; at the paper's
/// 3.4 GHz filter machine that is ≈3 µs. VIF's data plane pays this once at
/// startup ("only one ECall to launch the filter thread", §V-A).
pub const ECALL_COST_NS: u64 = 3_000;

/// Cost of one OCall (enclave → host) transition in simulated nanoseconds.
///
/// VIF's filter thread makes zero OCalls; this constant exists so the cost
/// model can quantify what the optimization saves.
pub const OCALL_COST_NS: u64 = 3_200;

/// Counters of world switches performed by an enclave.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransitionCounters {
    /// Host → enclave calls.
    pub ecalls: u64,
    /// Enclave → host calls.
    pub ocalls: u64,
}

impl TransitionCounters {
    /// Total simulated time spent in world switches, in nanoseconds.
    pub fn transition_time_ns(&self) -> u64 {
        self.ecalls * ECALL_COST_NS + self.ocalls * OCALL_COST_NS
    }
}

/// Takes `m`'s lock, taking over a poisoned one: a closure that panics
/// inside [`Enclave::ecall`] must not leave the enclave unusable for every
/// later call (the service catches a panicking worker and carries on).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
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

    /// The EPC configuration of this platform.
    pub fn epc_config(&self) -> EpcConfig {
        self.epc
    }

    /// Launches an enclave from `image` with initial protected `state`.
    ///
    /// The returned [`Enclave`] owns the state; the host can only reach it
    /// through [`Enclave::ecall`].
    pub fn launch<T>(&self, image: EnclaveImage, state: T) -> Enclave<T> {
        let id = self.next_enclave_id.fetch_add(1, Ordering::Relaxed);
        let mut epc = EpcUsage::new(self.epc);
        // The image's code pages are resident for the enclave's lifetime.
        epc.allocate(image.code_size());
        Enclave {
            id,
            measurement: image.measurement(),
            image,
            platform_id: self.platform_id,
            platform_key: self.platform_key,
            state: Mutex::new(state),
            epc: Mutex::new(epc),
            counters: Mutex::new(TransitionCounters::default()),
        }
    }
}

/// A running enclave holding protected state `T`.
///
/// Isolation is enforced by construction: `state` is private and only
/// reachable through [`ecall`], which also counts the transition. This is
/// the simulation analogue of the hardware guarantee that "a malicious
/// filtering network cannot tamper" with the filter logic (§III).
///
/// [`ecall`]: Enclave::ecall
#[derive(Debug)]
pub struct Enclave<T> {
    id: u64,
    measurement: Measurement,
    image: EnclaveImage,
    platform_id: u64,
    platform_key: [u8; 32],
    state: Mutex<T>,
    epc: Mutex<EpcUsage>,
    counters: Mutex<TransitionCounters>,
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

    /// Enters the enclave, giving the closure access to protected state.
    ///
    /// Counts one ECall; returns the closure's result.
    pub fn ecall<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        lock(&self.counters).ecalls += 1;
        let mut guard = lock(&self.state);
        f(&mut guard)
    }

    /// Records an OCall made from inside the enclave (the simulation cannot
    /// intercept host calls made within an `ecall` closure, so enclave
    /// application code reports them explicitly).
    pub fn record_ocall(&self) {
        lock(&self.counters).ocalls += 1;
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

    /// Transition counters so far.
    pub fn counters(&self) -> TransitionCounters {
        *lock(&self.counters)
    }

    /// EPC accounting handle.
    pub fn with_epc<R>(&self, f: impl FnOnce(&mut EpcUsage) -> R) -> R {
        f(&mut lock(&self.epc))
    }

    /// Current EPC access-cost multiplier (see [`EpcUsage`]).
    pub fn epc_multiplier(&self) -> f64 {
        lock(&self.epc).access_multiplier()
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
        assert_eq!(e.counters().ecalls, 1);
        assert_eq!(e.counters().ocalls, 0);
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
        assert_eq!(e.counters().ecalls, 2);
    }

    #[test]
    fn transition_costs() {
        let c = TransitionCounters {
            ecalls: 2,
            ocalls: 3,
        };
        assert_eq!(
            c.transition_time_ns(),
            2 * ECALL_COST_NS + 3 * OCALL_COST_NS
        );
    }

    #[test]
    fn unique_enclave_ids() {
        let (p, _) = platform();
        let a = p.launch(EnclaveImage::new("t", 1, vec![]), ());
        let b = p.launch(EnclaveImage::new("t", 1, vec![]), ());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn code_pages_counted_in_epc() {
        let (p, _) = platform();
        let e = p.launch(EnclaveImage::new("t", 1, vec![0; 1 << 20]), ());
        assert_eq!(e.with_epc(|epc| epc.allocated()), 1 << 20);
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
