//! Hostile bytes on the rule path and on the audit path.
//!
//! Whatever a relay puts inside an authentic channel frame, the enclave's
//! receivers queue exactly what they acknowledge, or refuse and queue
//! nothing. Whatever the host does to a log export on its way to the
//! verifiers, the audit returns an error. Nothing panics: a verifier that
//! panicked would take down the audit thread it runs on.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use std::sync::OnceLock;
use vif_core::enclave_app::ContractId;
use vif_core::logs::{LogDirection, LogError};
use vif_core::prelude::*;
use vif_core::verify::AuditError;
use vif_crypto::channel::SecureChannel;
use vif_crypto::dh::DhGroup;
use vif_crypto::hmac::HmacSha256;
use vif_sketch::SketchDecodeError;

/// How a relay mangles a well-formed request payload of `count` entries.
#[derive(Debug, Clone)]
struct Mangle {
    /// The in-frame contract id (the frames arrive on contract 0).
    contract: ContractId,
    count: usize,
    /// What the header claims, relative to `count`.
    skew: i64,
    /// Bytes of payload kept (truncation when shorter than the payload).
    keep: Option<usize>,
    /// One byte xor-ed: (offset modulo the length, mask).
    flip: Option<(usize, u8)>,
    /// Bytes that replace the payload outright.
    junk: Option<Vec<u8>>,
}

fn mangle() -> impl Strategy<Value = Mangle> {
    (
        select(vec![0, 0, 0, 7]),
        0usize..5,
        select(vec![0i64, 0, 0, -1, 1]),
        proptest::option::of(0usize..160),
        proptest::option::of((any::<usize>(), 1u8..=255)),
        select(vec![false, false, false, true]),
        vec(any::<u8>(), 0..40),
    )
        .prop_map(|(contract, count, skew, keep, flip, junk, bytes)| Mangle {
            contract,
            count,
            skew,
            keep,
            flip,
            junk: junk.then_some(bytes),
        })
}

impl Mangle {
    /// The mangled payload: `contract: u32 LE`, `count: u32 LE`, then the
    /// entries `entry` encodes, before mangling.
    fn payload(&self, entry: &[u8]) -> Vec<u8> {
        if let Some(junk) = &self.junk {
            return junk.clone();
        }
        let claimed = (self.count as i64 + self.skew).max(0) as u32;
        let mut bytes = self.contract.to_le_bytes().to_vec();
        bytes.extend_from_slice(&claimed.to_le_bytes());
        for _ in 0..self.count {
            bytes.extend_from_slice(entry);
        }
        if let Some(keep) = self.keep {
            bytes.truncate(keep);
        }
        if let (Some((at, mask)), false) = (self.flip, bytes.is_empty()) {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        bytes
    }
}

/// An app with contract 0's channel established, and the victim's end.
fn established() -> (FilterEnclaveApp, SecureChannel) {
    let nonce = [0x99; 32];
    let mut app = FilterEnclaveApp::fresh([9u8; 32]);
    let enclave_public = app.begin_handshake_for(0, nonce);
    let victim = DhGroup::modp_2048().key_pair_from_secret(&[0x42; 32]);
    let shared = victim.shared_secret(&enclave_public).unwrap();
    app.complete_handshake_for(0, &victim.public_bytes(), &nonce)
        .unwrap();
    let (channel, _) = SecureChannel::pair_from_secret(&shared, &nonce);
    (app, channel)
}

/// Seals `payload` and hands it to `receive`: an accepted frame must ack
/// the count its header claims and queue exactly that many edits
/// (installs if `installs`); a refused one must leave the queue as it was.
fn feed(
    app: &mut FilterEnclaveApp,
    channel: &mut SecureChannel,
    payload: &[u8],
    installs: bool,
    receive: impl FnOnce(&mut FilterEnclaveApp, &[u8]) -> Result<Vec<u8>, SessionError>,
) {
    let queued = |app: &FilterEnclaveApp| (app.pending_installs_for(0), app.pending_edits());
    let (installs_before, edits_before) = queued(app);
    let result = receive(app, &channel.seal(payload));
    match result {
        Ok(ack) => {
            let ack = channel.open(&ack).expect("authentic ack");
            let n = u32::from_le_bytes(ack[..4].try_into().unwrap()) as usize;
            assert_eq!(
                payload[4..8],
                (n as u32).to_le_bytes(),
                "acked an unclaimed count"
            );
            let new_installs = if installs { n } else { 0 };
            assert_eq!(
                queued(app),
                (installs_before + new_installs, edits_before + n)
            );
        }
        Err(e) => assert_eq!(queued(app), (installs_before, edits_before), "{e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hostile_request_frames_queue_all_or_nothing(mangles in vec(mangle(), 1..12)) {
        let (mut app, mut channel) = established();
        let owner = [1u8; 32];
        let mut rpki = RpkiRegistry::new();
        rpki.register("203.0.113.0/24".parse().unwrap(), owner);
        let rule = FilterRule::drop(FlowPattern::http_to("203.0.113.0/24".parse().unwrap()));
        for m in &mangles {
            feed(&mut app, &mut channel, &m.payload(&rule.encode()), true, |app, frame| {
                app.receive_rules_deferred_for(0, frame, &owner, &rpki)
            });
            let ids = m.payload(&7u32.to_le_bytes());
            feed(&mut app, &mut channel, &ids, false, |app, frame| {
                app.receive_rule_withdrawal_deferred_for(0, frame)
            });
        }
    }
}

const LOG_SEED: u64 = 0x10c5;
const LOG_KEY: [u8; 32] = [0x3c; 32];

/// Honest exports of one round of 200 flows, and verifiers that watched
/// the same flows: `(outgoing, incoming, victim, neighbor)`.
type Honest = (AuthenticatedSketch, AuthenticatedSketch, Verifier, Verifier);

fn honest_audit() -> &'static Honest {
    static HONEST: OnceLock<Honest> = OnceLock::new();
    HONEST.get_or_init(|| {
        let mut logs = PacketLogs::new(LOG_SEED);
        let mut victim = Verifier::new(LogDirection::Outgoing, LOG_SEED, LOG_KEY, 0);
        let mut neighbor = Verifier::new(LogDirection::Incoming, LOG_SEED, LOG_KEY, 0);
        for i in 0..200u32 {
            let t = FiveTuple::new(0x0b00_0000 + i, 0xcb00_7101, 1024, 80, Protocol::Tcp);
            logs.log_incoming(&t);
            logs.log_outgoing(&t);
            victim.observe(&t);
            neighbor.observe(&t);
        }
        let outgoing = logs.export(LogDirection::Outgoing, &LOG_KEY);
        let incoming = logs.export(LogDirection::Incoming, &LOG_KEY);
        (outgoing, incoming, victim, neighbor)
    })
}

/// Audits `export` with the verifier for the direction it was exported in.
fn audit(export: &AuthenticatedSketch, outgoing: bool) -> Result<BypassVerdict, AuditError> {
    let (_, _, victim, neighbor) = honest_audit();
    if outgoing {
        victim.audit(export).map(|r| r.verdict)
    } else {
        neighbor.audit(export).map(|r| r.verdict)
    }
}

/// A valid tag over whatever the export now says: `direction ‖ round ‖
/// payload` under the session key, the direction byte being 0x01 for
/// incoming and 0x02 for outgoing. Models an enclave whose encoder is
/// wrong, not a host, which cannot forge tags.
fn resign(export: &mut AuthenticatedSketch) {
    let mut mac = HmacSha256::new(&LOG_KEY);
    mac.update(&[match export.direction {
        LogDirection::Incoming => 0x01,
        LogDirection::Outgoing => 0x02,
    }]);
    mac.update(&export.round.to_le_bytes());
    mac.update(&export.payload);
    export.tag = mac.finalize();
}

/// Overwrites the header's width and depth (the first two u64 LE words).
fn lie_about_dimensions(export: &mut AuthenticatedSketch, width: u64, depth: u64) {
    export.payload[..8].copy_from_slice(&width.to_le_bytes());
    export.payload[8..16].copy_from_slice(&depth.to_le_bytes());
}

/// What the host does to one honest export.
#[derive(Debug, Clone)]
enum ExportMangle {
    /// Keeps `keep` (modulo the length) payload bytes.
    Truncate { keep: usize },
    /// Xors one byte of the payload, or of the tag if `in_tag`.
    Flip { at: usize, mask: u8, in_tag: bool },
    /// Rewrites the header's width × depth.
    Dimensions { width: u64, depth: u64 },
    /// Relabels the export with the other direction.
    Direction,
    /// Relabels the export with another round.
    Round { delta: u64 },
}

/// One hostile export: which honest export, what is done to it, and
/// whether the (structural) lie also carries a valid tag.
#[derive(Debug, Clone)]
struct HostileExport {
    outgoing: bool,
    mangle: ExportMangle,
    resigned: bool,
}

fn hostile_export() -> impl Strategy<Value = HostileExport> {
    let dims = || {
        select(vec![
            0u64,
            1,
            2,
            3,
            1 << 15,
            65_536,
            1 << 27,
            1 << 28,
            u64::MAX,
        ])
    };
    (
        any::<bool>(),
        0u8..5,
        any::<usize>(),
        1u8..=255,
        (dims(), dims()),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(outgoing, kind, n, mask, (width, depth), in_tag, resigned)| {
                let mangle = match kind {
                    0 => ExportMangle::Truncate { keep: n },
                    1 => ExportMangle::Flip {
                        at: n,
                        mask,
                        in_tag,
                    },
                    // The honest 65,536 × 2 header is no lie; swap it.
                    2 if (width, depth) == (65_536, 2) => ExportMangle::Dimensions {
                        width: 2,
                        depth: 65_536,
                    },
                    2 => ExportMangle::Dimensions { width, depth },
                    3 => ExportMangle::Direction,
                    _ => ExportMangle::Round {
                        delta: (n as u64).max(1),
                    },
                };
                HostileExport {
                    outgoing,
                    mangle,
                    resigned,
                }
            },
        )
}

impl HostileExport {
    /// True if the export ends up under a valid tag. Only structural lies
    /// (truncation, dimensions) are ever re-signed: a re-signed flip or
    /// round is a different valid log, not a hostile one.
    fn valid_tag(&self) -> bool {
        self.resigned
            && matches!(
                self.mangle,
                ExportMangle::Truncate { .. } | ExportMangle::Dimensions { .. }
            )
    }

    /// The mangled export.
    fn export(&self) -> AuthenticatedSketch {
        let (outgoing, incoming, _, _) = honest_audit();
        let mut export = if self.outgoing { outgoing } else { incoming }.clone();
        match self.mangle {
            ExportMangle::Truncate { keep } => {
                export.payload.truncate(keep % export.payload.len());
            }
            ExportMangle::Flip { at, mask, in_tag } => {
                let bytes: &mut [u8] = if in_tag {
                    &mut export.tag
                } else {
                    &mut export.payload
                };
                bytes[at % bytes.len()] ^= mask;
            }
            ExportMangle::Dimensions { width, depth } => {
                lie_about_dimensions(&mut export, width, depth);
            }
            ExportMangle::Direction => {
                export.direction = match export.direction {
                    LogDirection::Incoming => LogDirection::Outgoing,
                    LogDirection::Outgoing => LogDirection::Incoming,
                };
            }
            ExportMangle::Round { delta } => export.round = export.round.wrapping_add(delta),
        }
        if self.valid_tag() {
            resign(&mut export);
        }
        export
    }
}

#[test]
fn honest_exports_audit_clean() {
    let (outgoing, incoming, _, _) = honest_audit();
    assert_eq!(audit(outgoing, true), Ok(BypassVerdict::Clean));
    assert_eq!(audit(incoming, false), Ok(BypassVerdict::Clean));
}

#[test]
fn tag_is_checked_before_the_header_sizes_anything() {
    let (outgoing, _, _, _) = honest_audit();
    // The header claims 2^27 × 2 = 2^28 counters (2 GiB) under a bad tag.
    let mut export = outgoing.clone();
    lie_about_dimensions(&mut export, 1 << 27, 2);
    assert_eq!(audit(&export, true), Err(AuditError::Log(LogError::BadTag)));
    // Under a valid tag the decoder refuses the length lie before it
    // allocates, and refuses more than 2^28 counters outright.
    resign(&mut export);
    assert_eq!(
        audit(&export, true),
        Err(AuditError::Log(LogError::Malformed(
            SketchDecodeError::Malformed
        )))
    );
    lie_about_dimensions(&mut export, 1 << 28, 2);
    resign(&mut export);
    assert_eq!(
        audit(&export, true),
        Err(AuditError::Log(LogError::Malformed(
            SketchDecodeError::ImplausibleDimensions
        )))
    );
}

proptest! {
    #[test]
    fn hostile_exports_fail_the_audit_without_panicking(hostile in hostile_export()) {
        let result = audit(&hostile.export(), hostile.outgoing);
        match hostile.mangle {
            ExportMangle::Direction => prop_assert_eq!(result, Err(AuditError::WrongDirection)),
            _ if hostile.valid_tag() => prop_assert!(
                matches!(
                    result,
                    Err(AuditError::Log(LogError::Malformed(_)) | AuditError::Compare(_))
                ),
                "{:?}: {:?}",
                hostile,
                result
            ),
            _ => prop_assert_eq!(result, Err(AuditError::Log(LogError::BadTag))),
        }
    }
}
