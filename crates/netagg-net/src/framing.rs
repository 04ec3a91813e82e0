//! Length-prefixed binary framing over zero-copy byte chunks.
//!
//! Frames are `u32` big-endian length followed by the payload. The decoder
//! is an incremental state machine: feed it arbitrary byte chunks, pull
//! complete frames out. This is the role KryoNet's framing plays in the
//! paper's Java prototype.
//!
//! Buffering is a deque of shared [`Bytes`] chunks rather than one
//! contiguous buffer: [`FrameDecoder::feed_bytes`] takes ownership of a
//! chunk without copying, and a frame that lies wholly inside one chunk is
//! returned as a [`Bytes::slice`] window of it — the common case for the
//! TCP reactor (§12), which reads many coalesced frames per syscall into
//! one chunk and hands each out as a view. [`FrameDecoder::next_split`]
//! copies a frame's fixed-size head out and takes the body on its own, so
//! a body that arrived as a chunk of its own is that chunk, whatever chunk
//! its head came in. Only a body spanning a chunk boundary is reassembled
//! by copying.

use crate::transport::NetError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::VecDeque;

/// Maximum payload size of one frame (64 MiB). Larger application payloads
/// must be chunked (the shim layers chunk partial results anyway).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Append one frame (length prefix + payload) to `dst`.
pub fn encode_frame(payload: &[u8], dst: &mut BytesMut) -> Result<(), NetError> {
    if payload.len() > MAX_FRAME {
        return Err(NetError::FrameTooLarge(payload.len()));
    }
    dst.reserve(4 + payload.len());
    dst.put_u32(payload.len() as u32);
    dst.put_slice(payload);
    Ok(())
}

/// Incremental frame decoder over shared byte chunks.
#[derive(Debug)]
pub struct FrameDecoder {
    chunks: VecDeque<Bytes>,
    buffered: usize,
    max_frame: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::with_max(MAX_FRAME)
    }
}

impl FrameDecoder {
    /// Create an empty decoder enforcing [`MAX_FRAME`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty decoder with a custom frame-size limit. The TCP
    /// reactor uses this to grant its mux records a few bytes of header
    /// headroom above the application's [`MAX_FRAME`] payload bound.
    pub fn with_max(max_frame: usize) -> Self {
        Self {
            chunks: VecDeque::new(),
            buffered: 0,
            max_frame,
        }
    }

    /// Append raw bytes received from the wire (copies once into a fresh
    /// chunk; prefer [`FrameDecoder::feed_bytes`] when a [`Bytes`] is
    /// already at hand).
    pub fn feed(&mut self, data: &[u8]) {
        if !data.is_empty() {
            self.feed_bytes(Bytes::copy_from_slice(data));
        }
    }

    /// Append an owned chunk without copying.
    pub fn feed_bytes(&mut self, data: Bytes) {
        if !data.is_empty() {
            self.buffered += data.len();
            self.chunks.push_back(data);
        }
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn pending(&self) -> usize {
        self.buffered
    }

    /// Pop the next complete frame, if any.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, NetError> {
        Ok(self.next_split::<0>()?.map(|([], body)| body))
    }

    /// Pop the next complete frame as its first `H` bytes, copied out,
    /// and the body after them, taken apart from the head: a body that
    /// arrived as a chunk of its own comes back as that chunk. A frame
    /// shorter than `H` is corrupt.
    pub fn next_split<const H: usize>(&mut self) -> Result<Option<([u8; H], Bytes)>, NetError> {
        if self.buffered < 4 {
            return Ok(None);
        }
        let mut hdr = [0u8; 4];
        self.peek(&mut hdr);
        let len = u32::from_be_bytes(hdr) as usize;
        if len > self.max_frame {
            return Err(NetError::FrameTooLarge(len));
        }
        if len < H {
            return Err(NetError::Corrupt(format!(
                "{len}-byte frame under its {H}-byte head"
            )));
        }
        // The guard `discard` and `take` rely on: with `buffered` the sum
        // of `chunks` (private, kept by `feed_bytes` and those two), the
        // bytes they walk are present, so no length a peer writes reaches
        // their `expect`s.
        if self.buffered < 4 + len {
            return Ok(None);
        }
        self.discard(4);
        let mut head = [0u8; H];
        self.peek(&mut head);
        self.discard(H);
        Ok(Some((head, self.take(len - H))))
    }

    /// Copy the first `out.len()` buffered bytes into `out` without
    /// consuming them. Caller guarantees enough bytes are buffered.
    fn peek(&self, out: &mut [u8]) {
        let mut filled = 0;
        for chunk in &self.chunks {
            if filled == out.len() {
                break;
            }
            let n = (out.len() - filled).min(chunk.len());
            out[filled..filled + n].copy_from_slice(&chunk[..n]);
            filled += n;
        }
        debug_assert_eq!(filled, out.len());
    }

    /// Drop `n` buffered bytes. Caller guarantees they are present.
    fn discard(&mut self, mut n: usize) {
        self.buffered -= n;
        while n > 0 {
            let front = self.chunks.front_mut().expect("discard past buffer");
            if front.len() > n {
                front.advance(n);
                return;
            }
            n -= front.len();
            self.chunks.pop_front();
        }
    }

    /// Consume `n` buffered bytes as one frame. Zero-copy when they lie
    /// inside the front chunk (the chunk itself when they fill it);
    /// reassembled otherwise.
    fn take(&mut self, n: usize) -> Bytes {
        match self.chunks.front_mut() {
            _ if n == 0 => return Bytes::new(),
            Some(front) if front.len() > n => {
                self.buffered -= n;
                return front.split_to(n);
            }
            Some(front) if front.len() == n => {
                self.buffered -= n;
                return self.chunks.pop_front().unwrap_or_default();
            }
            _ => {}
        }
        // Spans chunks: reassemble by copying.
        let mut buf = BytesMut::with_capacity(n);
        while let Some(front) = self.chunks.front().filter(|_| buf.len() < n) {
            let part = (n - buf.len()).min(front.len());
            buf.extend_from_slice(&front[..part]);
            self.discard(part);
        }
        buf.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_frame() {
        let mut buf = BytesMut::new();
        encode_frame(b"hello", &mut buf).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"hello");
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn handles_fragmented_input() {
        let mut buf = BytesMut::new();
        encode_frame(b"fragmented-payload", &mut buf).unwrap();
        let mut dec = FrameDecoder::new();
        // Feed one byte at a time.
        for b in buf.iter() {
            dec.feed(&[*b]);
        }
        assert_eq!(
            dec.next_frame().unwrap().unwrap().as_ref(),
            b"fragmented-payload"
        );
    }

    #[test]
    fn handles_coalesced_frames() {
        let mut buf = BytesMut::new();
        for i in 0..10u8 {
            encode_frame(&[i; 3], &mut buf).unwrap();
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        for i in 0..10u8 {
            assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), &[i; 3]);
        }
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn empty_frame_roundtrips() {
        let mut buf = BytesMut::new();
        encode_frame(b"", &mut buf).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        assert_eq!(dec.next_frame().unwrap().unwrap().len(), 0);
    }

    #[test]
    fn oversized_frame_is_rejected_on_encode() {
        let huge = vec![0u8; MAX_FRAME + 1];
        let mut buf = BytesMut::new();
        assert!(matches!(
            encode_frame(&huge, &mut buf),
            Err(NetError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn oversized_frame_is_rejected_on_decode() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(matches!(dec.next_frame(), Err(NetError::FrameTooLarge(_))));
    }

    #[test]
    fn custom_limit_grants_header_headroom() {
        let mut dec = FrameDecoder::with_max(MAX_FRAME + 16);
        dec.feed(&(MAX_FRAME as u32 + 16).to_be_bytes());
        // Within the raised limit: incomplete, not an error.
        assert!(dec.next_frame().unwrap().is_none());
        let mut dec = FrameDecoder::with_max(MAX_FRAME + 16);
        dec.feed(&(MAX_FRAME as u32 + 17).to_be_bytes());
        assert!(matches!(dec.next_frame(), Err(NetError::FrameTooLarge(_))));
    }

    #[test]
    fn frame_within_one_chunk_shares_the_allocation() {
        // Two frames coalesced into one fed chunk: both must come back as
        // windows of that chunk (zero-copy), which the shim Bytes exposes
        // as pointer-equal backing slices.
        let mut buf = BytesMut::new();
        encode_frame(b"first", &mut buf).unwrap();
        encode_frame(b"second", &mut buf).unwrap();
        let chunk = buf.freeze();
        let backing = chunk.as_ref().as_ptr() as usize;
        let mut dec = FrameDecoder::new();
        dec.feed_bytes(chunk);
        let f1 = dec.next_frame().unwrap().unwrap();
        let f2 = dec.next_frame().unwrap().unwrap();
        assert_eq!(f1.as_ref(), b"first");
        assert_eq!(f2.as_ref(), b"second");
        let inside = |b: &Bytes| {
            let p = b.as_ref().as_ptr() as usize;
            p >= backing && p < backing + 4 + 5 + 4 + 6
        };
        assert!(
            inside(&f1) && inside(&f2),
            "frames must share the fed chunk"
        );
    }

    #[test]
    fn a_body_that_arrived_as_its_own_chunk_is_that_chunk() {
        // The head ends one chunk, the body is the next: as a TCP writer
        // stages `[len][type][chan]` behind smaller records and pushes a
        // large payload after it.
        let body = Bytes::from(vec![7u8; 1000]);
        let mut staging = BytesMut::new();
        encode_frame(b"small", &mut staging).unwrap();
        staging.put_u32(5 + 1000);
        staging.put_slice(&[2, 0, 0, 0, 9]);
        let mut dec = FrameDecoder::new();
        dec.feed_bytes(staging.freeze());
        dec.feed_bytes(body.clone());
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"small");
        let (rec, got) = dec.next_split::<5>().unwrap().unwrap();
        assert_eq!(rec, [2, 0, 0, 0, 9]);
        assert_eq!(got, body);
        assert_eq!(got.as_ptr(), body.as_ptr(), "the body was copied");
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn a_body_spanning_chunks_decodes_and_a_short_record_is_corrupt() {
        let mut buf = BytesMut::new();
        let payload: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        encode_frame(&payload, &mut buf).unwrap();
        encode_frame(b"abc", &mut buf).unwrap();
        let whole = buf.freeze();
        let mut dec = FrameDecoder::new();
        for cut in [(0, 2), (2, 7), (7, 150), (150, whole.len())] {
            dec.feed_bytes(whole.slice(cut.0..cut.1));
        }
        let (head, body) = dec.next_split::<5>().unwrap().unwrap();
        assert_eq!((&head[..], &body[..]), (&payload[..5], &payload[5..]));
        assert!(matches!(dec.next_split::<5>(), Err(NetError::Corrupt(_))));
    }

    #[test]
    fn frame_spanning_chunks_reassembles() {
        let mut buf = BytesMut::new();
        let payload: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        encode_frame(&payload, &mut buf).unwrap();
        let whole = buf.freeze();
        let mut dec = FrameDecoder::new();
        // Split mid-payload into three owned chunks.
        dec.feed_bytes(whole.slice(..300));
        dec.feed_bytes(whole.slice(300..700));
        assert!(dec.next_frame().unwrap().is_none());
        dec.feed_bytes(whole.slice(700..));
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), &payload[..]);
        assert_eq!(dec.pending(), 0);
    }
}
