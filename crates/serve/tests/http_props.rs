//! The HTTP/1.1 request parser against fragmenting peers: a request parses
//! the same however its bytes are split into reads, the head cap holds at
//! every split, and bytes past `Content-Length` never reach the body.

use proptest::prelude::*;
use std::io::{self, Read};
use wavm3_serve::http::{read_request, Request, MAX_HEAD_BYTES};

/// A peer that hands out `data` in reads of the given lengths, cycling
/// through them, each also capped by the caller's buffer.
struct Chunked<'a> {
    data: &'a [u8],
    chunks: &'a [usize],
    reads: usize,
    pos: usize,
}

impl<'a> Chunked<'a> {
    fn new(data: &'a [u8], chunks: &'a [usize]) -> Self {
        Chunked {
            data,
            chunks,
            reads: 0,
            pos: 0,
        }
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let want = self.chunks[self.reads % self.chunks.len()];
        self.reads += 1;
        let n = want.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Parse `data` arriving in reads of `chunks` bytes.
fn parse(data: &[u8], chunks: &[usize]) -> io::Result<Request> {
    read_request(&mut Chunked::new(data, chunks))
}

/// The parsed fields, for comparing two parses.
fn fields(r: &Request) -> (&str, &str, &[(String, String)], &[u8]) {
    (&r.method, &r.path, &r.headers, &r.body)
}

/// A `GET /healthz` head of exactly `len` bytes, padded in one header.
fn head_of(len: usize) -> Vec<u8> {
    let start = "GET /healthz HTTP/1.1\r\nx-pad: ";
    let head = format!("{start}{}\r\n\r\n", "a".repeat(len - start.len() - 4));
    assert_eq!(head.len(), len);
    head.into_bytes()
}

/// A request: method, path, headers, a body under its `Content-Length`
/// (when any), then bytes the next request would have sent.
fn request() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (
        prop_oneof![Just("GET"), Just("POST"), Just("PUT")],
        "/[a-z]{1,12}",
        prop::collection::vec(("x-[a-z]{1,8}", "[a-zA-Z0-9 ]{0,40}"), 0..6),
        prop_oneof![
            Just(None),
            prop::collection::vec(0u8..=255, 0..2000).prop_map(Some),
        ],
        prop::collection::vec(0u8..=255, 0..300),
    )
        .prop_map(|(method, path, headers, body, trailing)| {
            let mut head = format!("{method} {path} HTTP/1.1\r\nhost: wavm3\r\n");
            for (name, value) in &headers {
                head.push_str(&format!("{name}: {value}\r\n"));
            }
            if let Some(body) = &body {
                head.push_str(&format!("content-length: {}\r\n", body.len()));
            }
            head.push_str("\r\n");
            let body = body.unwrap_or_default();
            let mut data = head.into_bytes();
            data.extend_from_slice(&body);
            data.extend_from_slice(&trailing);
            (data, body)
        })
}

proptest! {
    /// Split reads parse exactly as one read does, and the body is the
    /// declared one: nothing past `Content-Length` reaches it.
    #[test]
    fn split_reads_parse_like_one_read(
        (data, body) in request(),
        chunks in prop::collection::vec(1usize..=600, 1..40),
    ) {
        let whole = parse(&data, &[usize::MAX]).expect("a well-formed request parses");
        let split = parse(&data, &chunks).expect("a well-formed request parses when split");
        prop_assert_eq!(fields(&split), fields(&whole));
        prop_assert_eq!(&split.body, &body);
    }

    /// The head cap holds however the head is split into reads.
    #[test]
    fn the_head_cap_holds_under_random_splits(
        chunks in prop::collection::vec(1usize..=600, 1..40),
    ) {
        prop_assert!(parse(&head_of(MAX_HEAD_BYTES), &chunks).is_ok());
        prop_assert!(parse(&head_of(MAX_HEAD_BYTES + 1), &chunks).is_err());
    }
}

/// A head of `MAX_HEAD_BYTES` is accepted and one byte more rejected at
/// every split into two reads.
#[test]
fn the_head_cap_holds_at_every_split() {
    for (len, ok) in [(MAX_HEAD_BYTES, true), (MAX_HEAD_BYTES + 1, false)] {
        let head = head_of(len);
        for split in 1..len {
            let parsed = parse(&head, &[split, usize::MAX]);
            assert_eq!(parsed.is_ok(), ok, "a {len}-byte head split at {split}");
        }
    }
}
