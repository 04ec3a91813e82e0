//! Property-based tests of the network substrate: the frame codec must
//! survive arbitrary payloads and arbitrary fragmentation, the wire
//! helpers must round-trip and never panic on garbage, and the in-process
//! transport must preserve per-connection FIFO order.

use bytes::BytesMut;
use netagg_net::{encode_frame, ChannelTransport, DetRng, FrameDecoder, Transport};
use proptest::prelude::*;

proptest! {
    /// Any sequence of payloads, encoded back-to-back and re-fed to the
    /// decoder in arbitrary chunk sizes, decodes to the same sequence.
    #[test]
    fn framing_roundtrips_under_fragmentation(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..20),
        cuts in proptest::collection::vec(1usize..64, 1..50),
    ) {
        let mut wire = BytesMut::new();
        for p in &payloads {
            encode_frame(p, &mut wire).unwrap();
        }
        let wire = wire.freeze();
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        let mut offset = 0;
        let mut cut_iter = cuts.iter().cycle();
        while offset < wire.len() {
            let take = (*cut_iter.next().unwrap()).min(wire.len() - offset);
            dec.feed(&wire[offset..offset + take]);
            offset += take;
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f.to_vec());
            }
        }
        prop_assert_eq!(out, payloads);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// The decoder never panics on arbitrary garbage: every outcome is a
    /// frame, "need more data", or a frame-too-large error.
    #[test]
    fn decoder_tolerates_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut dec = FrameDecoder::new();
        dec.feed(&data);
        for _ in 0..data.len() + 1 {
            match dec.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    /// Wire byte-string round-trips preserve content and consume exactly
    /// the bytes written.
    #[test]
    fn wire_bytes_roundtrip(
        items in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..100), 0..10)
    ) {
        use netagg_net::wire::{get_bytes, put_bytes};
        let mut buf = BytesMut::new();
        for b in &items {
            put_bytes(&mut buf, b);
        }
        let mut src = buf.freeze();
        for b in &items {
            let got = get_bytes(&mut src).unwrap();
            prop_assert_eq!(got.as_ref(), b.as_slice());
        }
        prop_assert!(src.is_empty());
    }

    /// Wire decoders reject truncated or corrupt input without panicking.
    #[test]
    fn wire_decoders_never_panic(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        use netagg_net::wire::{get_bytes, get_f64, get_str, get_u32, get_u64, get_u8};
        let src = bytes::Bytes::from(data);
        let _ = get_bytes(&mut src.clone());
        let _ = get_str(&mut src.clone());
        let _ = get_u8(&mut src.clone());
        let _ = get_u32(&mut src.clone());
        let _ = get_u64(&mut src.clone());
        let _ = get_f64(&mut src.clone());
    }

    /// The in-process transport delivers each connection's messages in
    /// send order, regardless of payload sizes.
    #[test]
    fn channel_transport_preserves_fifo(
        sizes in proptest::collection::vec(0usize..4096, 1..30)
    ) {
        let t = ChannelTransport::new();
        let mut listener = t.bind(1).unwrap();
        let mut tx = t.connect(2, 1).unwrap();
        let payloads: Vec<bytes::Bytes> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mut v = vec![(i % 251) as u8; n];
                v.extend_from_slice(&(i as u32).to_be_bytes());
                bytes::Bytes::from(v)
            })
            .collect();
        for p in &payloads {
            tx.send(p.clone()).unwrap();
        }
        let mut rx = listener
            .accept_timeout(std::time::Duration::from_secs(1))
            .unwrap();
        for p in &payloads {
            let got = rx
                .recv_timeout(std::time::Duration::from_secs(1))
                .unwrap();
            prop_assert_eq!(&got, p);
        }
    }
}

/// `DetRng` is the splitmix64 stream: seeded schedules and benchmark
/// payloads repeat across versions only while these outputs do.
#[test]
fn det_rng_is_the_splitmix64_stream() {
    let mut rng = DetRng::new(0);
    let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
    let pinned = [
        0xE220_A839_7B1D_CDAF,
        0x6E78_9E6A_A1B9_65F4,
        0x06C4_5D18_8009_454F,
    ];
    assert_eq!(first, pinned);
}
