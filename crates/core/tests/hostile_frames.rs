//! Hostile bytes on the one rule path: whatever a relay puts inside an
//! authentic channel frame, the enclave's receivers queue exactly what
//! they acknowledge, or refuse and queue nothing. Neither panics.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use vif_core::enclave_app::ContractId;
use vif_core::prelude::*;
use vif_crypto::channel::SecureChannel;
use vif_crypto::dh::DhGroup;

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
