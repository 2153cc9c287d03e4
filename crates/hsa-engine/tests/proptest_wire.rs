//! Property coverage of the wire codec (DESIGN.md §13).
//!
//! * **Round trip**: every [`Request`] and [`Reply`] variant survives
//!   encode → frame parse → decode → re-encode with byte-identical
//!   frames. Replies are real service answers (verify mode on), not
//!   hand-built values, so the payload schema is exercised at full depth
//!   — cuts, assignments, delay reports, frontier envelopes with exact
//!   rational breakpoints, session outcomes.
//! * **Robustness**: arbitrary garbage bytes never panic or hang the
//!   [`FrameDecoder`] the reactor and the client read with, and arbitrary
//!   headers/payloads never panic the decoders — malformed input always
//!   surfaces as a typed [`WireError`].
//!
//! Green under `PROPTEST_SEED` 1–3 (and the default stream).

use hsa_engine::net::wire::{
    self, Decoded, FrameDecoder, FrameEncoder, NetReply, NetRequest, WireError,
};
use hsa_engine::{Engine, EngineConfig, Reply, Request, Service, ServiceConfig, TenantId};
use hsa_graph::{Cost, Lambda};
use hsa_tree::{CruId, Delta};
use hsa_workloads::{random_instance, Placement, RandomTreeParams};
use proptest::prelude::*;
use proptest::TestCaseError;

fn small_instance(seed: u64) -> (hsa_tree::CruTree, hsa_tree::CostModel) {
    random_instance(
        &RandomTreeParams {
            n_crus: 10,
            n_satellites: 3,
            placement: Placement::Random,
            ..RandomTreeParams::default()
        },
        seed,
    )
}

/// The one frame `bytes` holds, read back through the decoder.
fn only_frame(bytes: &[u8]) -> Result<wire::Frame, TestCaseError> {
    let mut dec = FrameDecoder::new();
    dec.push(bytes);
    let frame = match dec.next(wire::DEFAULT_MAX_FRAME_LEN) {
        Some(Decoded::Frame(f)) => f.to_frame(),
        other => {
            return Err(TestCaseError::fail(format!(
                "encoded frame did not parse: {other:?}"
            )))
        }
    };
    prop_assert_eq!(dec.buffered(), 0, "bytes left over after the frame");
    Ok(frame)
}

/// encode → wire bytes → parse → decode → re-encode must reproduce the
/// frame byte-for-byte (the codec is canonical on its own output).
fn roundtrip_request(req: &Request, corr: u64) -> Result<(), TestCaseError> {
    let mut enc = FrameEncoder::new();
    let mut bytes = Vec::new();
    let (kind, payload) = enc.put_request(&mut bytes, corr, req);
    let parsed = only_frame(&bytes)?;
    prop_assert_eq!(
        (parsed.version, parsed.kind, parsed.corr),
        (wire::PROTOCOL_VERSION, kind, corr)
    );
    prop_assert_eq!(
        &parsed.payload[..],
        &bytes[payload],
        "payload changed across the byte layer"
    );
    let NetRequest::Submit(decoded) =
        wire::decode_request_parts(parsed.kind, parsed.tenant, &parsed.payload)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?
    else {
        return Err(TestCaseError::fail("request decoded as a control frame"));
    };
    let mut reencoded = Vec::new();
    enc.put_request(&mut reencoded, corr, &decoded);
    prop_assert_eq!(reencoded, bytes, "request round trip is not byte-identical");
    Ok(())
}

fn roundtrip_reply(reply: &Reply, corr: u64, tenant: u64) -> Result<(), TestCaseError> {
    let mut enc = FrameEncoder::new();
    let mut bytes = Vec::new();
    enc.put_reply(&mut bytes, corr, tenant, reply);
    let parsed = only_frame(&bytes)?;
    let NetReply::Reply(decoded) = wire::decode_server_frame(&parsed)
        .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?
    else {
        return Err(TestCaseError::fail("reply decoded as a control frame"));
    };
    let mut reencoded = Vec::new();
    enc.put_reply(&mut reencoded, corr, tenant, &decoded);
    prop_assert_eq!(reencoded, bytes, "reply round trip is not byte-identical");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every request variant round-trips byte-identically.
    #[test]
    fn every_request_variant_roundtrips(
        seed in 0u64..500,
        corr in 0u64..u64::MAX,
        raw_id in 0u64..u64::MAX,
        lam in 0u32..=8,
    ) {
        let (tree, costs) = small_instance(seed);
        let lambda = Lambda::new(lam, 8).unwrap();
        let id = hsa_engine::InstanceId::from_raw(raw_id);
        let delta = Delta::new().set_host_time(CruId(0), Cost::new(seed % 997 + 1));
        let tenant = TenantId(seed);
        let requests = [
            Request::solve(&tree, &costs, lambda),
            Request::solve_by_id(id, lambda),
            Request::frontier(&tree, &costs),
            Request::frontier_by_id(id),
            Request::delta(tenant, delta, lambda),
            Request::solve_anytime(&tree, &costs, lambda, seed),
            Request::open_tenant(tenant, &tree, &costs),
            Request::close_tenant(tenant),
        ];
        for req in &requests {
            roundtrip_request(req, corr)?;
        }
    }

    /// Every reply variant — produced by a real verify-mode service, so
    /// the payloads carry full solutions and frontiers — round-trips
    /// byte-identically.
    #[test]
    fn every_reply_variant_roundtrips(
        seed in 0u64..500,
        corr in 0u64..u64::MAX,
        lam in 0u32..=8,
    ) {
        let (tree, costs) = small_instance(seed);
        let lambda = Lambda::new(lam, 8).unwrap();
        let engine = std::sync::Arc::new(Engine::new(EngineConfig::default()));
        let service = Service::new(engine, ServiceConfig {
            workers: 1,
            verify: true,
            ..ServiceConfig::default()
        });
        let tenant = TenantId(seed);
        let delta = Delta::new().set_host_time(tree.root(), Cost::new(seed % 997 + 1));
        // A budget no 10-CRU race can exhaust: the exact arm finishes.
        let anytime = Request::solve_anytime(&tree, &costs, lambda, 60_000);
        let replies = [
            service.submit(Request::solve(&tree, &costs, lambda)).wait().unwrap(),
            service.submit(Request::frontier(&tree, &costs)).wait().unwrap(),
            service.submit(anytime).wait().unwrap(),
            service.submit(Request::open_tenant(tenant, &tree, &costs)).wait().unwrap(),
            service.submit(Request::delta(tenant, delta, lambda)).wait().unwrap(),
            service.submit(Request::close_tenant(tenant)).wait().unwrap(),
        ];
        prop_assert!(replies[2].anytime().is_some_and(|a| a.exact_finished));
        for reply in &replies {
            roundtrip_reply(reply, corr, tenant.0)?;
        }
    }

    /// Arbitrary bytes behind a short length prefix: the decoder
    /// terminates without panicking, and every frame it produces decodes
    /// to a value or a typed error — never a panic. (A random prefix alone
    /// would almost always exceed the cap, so the first one is drawn
    /// small enough to reach the payload decoders.)
    #[test]
    fn garbage_never_panics_the_codec(
        declared in 0u32..=300,
        bytes in proptest::collection::vec(0u8..=255, 256),
        len in 0usize..=256,
    ) {
        let mut dec = FrameDecoder::new();
        dec.push(&declared.to_be_bytes());
        dec.push(&bytes[..len]);
        while let Some(Decoded::Frame(f)) = dec.next(4096) {
            let _ = wire::decode_request_parts(f.kind, f.tenant, f.payload);
            let _ = wire::decode_server_frame(&f.to_frame());
        }
    }

    /// Incremental reassembly is fragmentation-blind: a frame stream cut
    /// into arbitrary chunks (the decoder's nonblocking-read diet) comes
    /// back out as exactly the frames that went in, byte-identically —
    /// and mid-frame truncation simply leaves the tail buffered.
    #[test]
    fn fragmented_streams_reassemble_byte_identically(
        seed in 0u64..500,
        lam in 0u32..=8,
        cuts in proptest::collection::vec(1usize..64, 16),
        truncate in 0usize..32,
    ) {
        let (tree, costs) = small_instance(seed);
        let lambda = Lambda::new(lam, 8).unwrap();
        let mut enc = FrameEncoder::new();
        let mut frames = vec![Vec::new(); 4];
        enc.put_hello(&mut frames[0], 1);
        enc.put_request(&mut frames[1], 2, &Request::solve(&tree, &costs, lambda));
        enc.put_request(&mut frames[2], 3, &Request::frontier(&tree, &costs));
        enc.put_error(&mut frames[3], 4, 7, &WireError::Quota(7));
        let stream = frames.concat();
        // Drop up to `truncate` tail bytes: the last frame may arrive cut.
        let cut_off = truncate.min(stream.len() - 1);
        let fed = &stream[..stream.len() - cut_off];

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut pos = 0usize;
        let mut cut_iter = cuts.iter().copied().chain(std::iter::repeat(17));
        while pos < fed.len() {
            let step = cut_iter.next().unwrap_or(17).min(fed.len() - pos);
            dec.push(&fed[pos..pos + step]);
            pos += step;
            while let Some(d) = dec.next(wire::DEFAULT_MAX_FRAME_LEN) {
                match d {
                    Decoded::Frame(f) => {
                        prop_assert_eq!(f.version, wire::PROTOCOL_VERSION);
                        let mut frame = Vec::new();
                        wire::put_raw_frame(&mut frame, f.kind, f.tenant, f.corr, f.payload);
                        got.push(frame);
                    }
                    other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
                }
            }
        }
        let whole = if cut_off == 0 { frames.len() } else { frames.len() - 1 };
        prop_assert!(got.len() >= whole, "lost complete frames to fragmentation");
        for (g, f) in got.iter().zip(&frames) {
            prop_assert_eq!(g, f);
        }
        // Whatever was withheld is still buffered, not silently dropped.
        let consumed: usize = got.iter().map(Vec::len).sum();
        prop_assert_eq!(consumed + dec.buffered(), fed.len());
    }

    /// Arbitrary headers over arbitrary payloads: unknown kinds and
    /// unparseable bodies answer typed errors.
    #[test]
    fn random_frames_decode_to_typed_errors(
        kind in 0u8..=255,
        tenant in 0u64..u64::MAX,
        corr in 0u64..u64::MAX,
        payload in proptest::collection::vec(0u8..=255, 48),
        plen in 0usize..=48,
    ) {
        let frame = wire::Frame {
            version: wire::PROTOCOL_VERSION,
            kind,
            tenant,
            corr,
            payload: payload[..plen].to_vec(),
        };
        if let Err(e) = wire::decode_request_parts(kind, tenant, &frame.payload) {
            prop_assert!(matches!(e, WireError::UnknownKind(_) | WireError::Malformed(_)));
        }
        if let Err(e) = wire::decode_server_frame(&frame) {
            prop_assert!(matches!(e, WireError::UnknownKind(_) | WireError::Malformed(_)));
        }
    }
}
