//! Adversarial fuzzing of the router: arbitrary frame streams — replayed,
//! reordered, RHL-mutated, cross-wired between nodes — must never panic,
//! never emit a forwardable packet with a spent hop limit, and never
//! accept tampered content.

use geonet::wire::GnPacket;
use geonet::{CertificateAuthority, Frame, GnAddress, GnConfig, GnRouter, RouterAction};
use geonet_geo::{Area, GeoReference, Heading, Position};
use geonet_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::cell::OnceCell;

fn router(ca: &CertificateAuthority, mid: u64) -> GnRouter {
    GnRouter::new(
        ca.enroll(GnAddress::vehicle(mid)),
        ca.verifier(),
        GnConfig::paper_default(1_283.0),
        GeoReference::default(),
    )
}

/// A pool of authentic frames to replay/mutate: beacons, GBC, TSB, SHB.
fn frame_pool(ca: &CertificateAuthority, now: SimTime) -> Vec<Frame> {
    let mut frames = Vec::new();
    let area = Area::rectangle(Position::new(2_000.0, 0.0), 2_050.0, 25.0, 90.0);
    let far_area = Area::circle(Position::new(4_020.0, 0.0), 40.0);
    for mid in 1..5u64 {
        let mut r = router(ca, mid);
        let pos = Position::new(mid as f64 * 250.0, 2.5);
        frames.push(r.make_beacon(now, pos, 30.0, Heading::EAST));
        let (_, actions) = r.originate(&area, vec![mid as u8], now, pos, 30.0, Heading::EAST);
        let (_, actions2) = r.originate(&far_area, vec![mid as u8], now, pos, 30.0, Heading::EAST);
        let (_, actions3) = r.originate_tsb(vec![mid as u8], 5, now, pos, 30.0, Heading::EAST);
        let actions4 = r.originate_shb(vec![mid as u8], now, pos, 30.0, Heading::EAST);
        for a in actions.into_iter().chain(actions2).chain(actions3).chain(actions4) {
            if let RouterAction::Transmit(f) = a {
                frames.push(f);
            }
        }
    }
    frames
}

/// A new transmission derived from an authentic one by an outsider:
/// 0 verbatim replay, 1 RHL rewrite, 2 single-bit tamper (`None` when
/// the flipped bytes no longer decode), 3 re-signed by a foreign CA's
/// member, 4 the signer's certificate swapped for a foreign one.
fn derive(
    base: &Frame,
    foreign: &CertificateAuthority,
    how: usize,
    rhl: u8,
    bit: usize,
) -> Option<Frame> {
    let msg = match how {
        0 => base.msg.clone(),
        1 => base.msg.with_rhl(rhl),
        2 => {
            let mut bytes = base.msg.packet.encode();
            let bit = bit % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            base.msg.with_packet(GnPacket::decode(&bytes).ok()?)
        }
        3 => foreign.enroll(base.msg.signer.subject).sign(base.msg.packet.clone()),
        _ => {
            let mut msg = base.msg.clone();
            msg.signer = foreign.enroll(msg.signer.subject).certificate();
            msg
        }
    };
    Some(Frame { msg, ..base.clone() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memoized_verdict_matches_a_fresh_verify(
        choices in prop::collection::vec(
            (0usize..64, 0usize..5, 0u8..=255, 0usize..1_024), 1..40))
    {
        // Two receivers share each transmission's verdict cell, as every
        // receiver of one broadcast does in a world; their twins verify
        // every frame afresh through `handle_frame`. The original is on the
        // air and verified first; the outsider's derivative is a new
        // transmission with a cell of its own.
        let ca = CertificateAuthority::new(99);
        let foreign = CertificateAuthority::new(0xF0F0);
        let verifier = ca.verifier();
        let t0 = SimTime::from_secs(1);
        let pool = frame_pool(&ca, t0);
        let pos = Position::new(600.0, 2.5);
        let mut memo = [router(&ca, 77), router(&ca, 78)];
        let mut fresh = [router(&ca, 77), router(&ca, 78)];
        for (idx, how, rhl, bit) in choices {
            let base = &pool[idx % pool.len()];
            let original = OnceCell::new();
            for (m, f) in memo.iter_mut().zip(&mut fresh) {
                let got = m.receive(base, &original, pos, t0);
                prop_assert_eq!(got, f.handle_frame(base, pos, t0));
            }
            prop_assert_eq!(original.get(), Some(&true));
            let Some(derived) = derive(base, &foreign, how, rhl, bit) else { continue };
            let cell = OnceCell::new();
            for (m, f) in memo.iter_mut().zip(&mut fresh) {
                let got = m.receive(&derived, &cell, pos, t0);
                prop_assert_eq!(got, f.handle_frame(&derived, pos, t0));
                prop_assert_eq!(m.stats().auth_failures, f.stats().auth_failures);
                prop_assert_eq!(m.stats(), f.stats());
            }
            prop_assert_eq!(cell.get().copied(), Some(verifier.verify(&derived.msg)));
            prop_assert_eq!(original.get(), Some(&true), "the original's verdict is untouched");
            if how >= 3 {
                prop_assert_eq!(cell.get(), Some(&false), "foreign signatures never verify");
            }
        }
    }

    #[test]
    fn router_survives_arbitrary_frame_streams(
        choices in prop::collection::vec((0usize..16, 0u8..=255, any::<bool>(), 0u64..60), 1..60))
    {
        let ca = CertificateAuthority::new(99);
        let t0 = SimTime::from_secs(1);
        let pool = frame_pool(&ca, t0);
        let mut victim = router(&ca, 77);
        let victim_pos = Position::new(600.0, 2.5);

        for (idx, rhl, spoof_src, delay_ms) in choices {
            let base = &pool[idx % pool.len()];
            // The attacker's full power set: replay, reorder (delay),
            // rewrite the unprotected RHL, spoof the link-layer source.
            let mut frame = Frame {
                msg: base.msg.with_rhl(rhl),
                ..base.clone()
            };
            if spoof_src {
                frame.src = GnAddress::vehicle(0xFFFF);
            }
            let now = t0 + SimDuration::from_millis(delay_ms);
            let actions = victim.handle_frame(&frame, victim_pos, now);
            for a in actions {
                match a {
                    RouterAction::Transmit(out) => {
                        // Anything the victim transmits must be authentic
                        // (it only ever signs its own or forwards valid
                        // packets)...
                        prop_assert!(ca.verifier().verify(&out.msg));
                        // ...and a forwarded multi-hop packet never leaves
                        // with a spent hop limit.
                        if out.msg.packet.gbc().is_some() {
                            prop_assert!(out.msg.rhl() >= 1);
                        }
                    }
                    RouterAction::Deliver { payload, .. } => {
                        prop_assert!(payload.len() <= 16);
                    }
                    RouterAction::CbfTimer { delay, .. } => {
                        prop_assert!(delay >= SimDuration::from_millis(1));
                        prop_assert!(delay <= SimDuration::from_millis(100));
                    }
                    RouterAction::GfRetry { delay, .. } => {
                        prop_assert!(delay > SimDuration::ZERO);
                    }
                }
            }
        }
    }

    #[test]
    fn router_rejects_all_single_bit_tampering(byte in 4usize..56, bit in 0u8..8) {
        // Flip one bit of the integrity-covered region (anything past the
        // basic header) of a signed GBC packet: the router must drop it.
        let ca = CertificateAuthority::new(7);
        let t0 = SimTime::from_secs(1);
        let mut src = router(&ca, 1);
        let area = Area::rectangle(Position::new(2_000.0, 0.0), 2_050.0, 25.0, 90.0);
        let (_, actions) =
            src.originate(&area, vec![0xAB], t0, Position::new(1_000.0, 2.5), 30.0, Heading::EAST);
        let RouterAction::Transmit(frame) = &actions[0] else { panic!() };

        let mut bytes = frame.msg.packet.encode();
        prop_assume!(byte < bytes.len());
        bytes[byte] ^= 1 << bit;
        if let Ok(tampered) = GnPacket::decode(&bytes) {
            prop_assume!(tampered != frame.msg.packet); // reserved bits absorb some flips
            let msg = frame.msg.with_packet(tampered);
            let mut victim = router(&ca, 2);
            let actions =
                victim.handle_frame(&Frame { msg, ..frame.clone() }, Position::new(1_400.0, 2.5), t0);
            prop_assert!(actions.is_empty(), "tampered packet was processed");
            prop_assert_eq!(victim.stats().auth_failures, 1);
        }
    }
}

#[test]
fn replayed_pool_frames_are_all_authentic() {
    // Sanity for the fuzz pool itself.
    let ca = CertificateAuthority::new(99);
    let pool = frame_pool(&ca, SimTime::from_secs(1));
    assert!(pool.len() >= 16);
    for f in &pool {
        assert!(ca.verifier().verify(&f.msg));
    }
}
