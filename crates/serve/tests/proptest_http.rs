//! Adversarial property tests for the HTTP/1.1 parser: arbitrary garbage,
//! truncations, split reads and lying `Content-Length` claims must all
//! surface as typed errors or `Partial` — never a panic, never an
//! out-of-bounds read, and never a message that differs by how the bytes
//! were chunked.

use proptest::prelude::*;
use serve::http::{
    parse_request, write_response, Conn, HttpError, Parse, Request, Response, MAX_BODY_BYTES,
};

/// A structurally valid request generated field by field.
fn arbitrary_request_wire() -> impl Strategy<Value = Vec<u8>> {
    (
        0u32..2,
        proptest::collection::vec(0u8..26, 1..8),
        proptest::collection::vec((0u8..26, 0u8..26), 0..4),
        proptest::collection::vec(0u8..255, 0..64),
        0u32..2,
    )
        .prop_map(|(method, path, headers, body, close)| {
            let method = if method == 0 { "GET" } else { "POST" };
            let path: String = path.iter().map(|c| (b'a' + c) as char).collect();
            let mut wire = format!("{method} /{path} HTTP/1.1\r\n").into_bytes();
            for (i, (a, b)) in headers.iter().enumerate() {
                let name = format!("x-{}{}-{i}", (b'a' + a) as char, (b'a' + b) as char);
                let value = format!("v{}{}", (b'a' + b) as char, i);
                wire.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
            }
            if close == 1 {
                wire.extend_from_slice(b"connection: close\r\n");
            }
            wire.extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
            wire.extend_from_slice(&body);
            wire
        })
}

fn parse_whole(wire: &[u8]) -> Request {
    match parse_request(wire).expect("generated request must parse") {
        Parse::Complete { value, consumed } => {
            assert_eq!(consumed, wire.len());
            value
        }
        Parse::Partial => panic!("generated request parsed as partial"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(0u8..255, 0..256)) {
        // Any outcome is fine — typed error, partial, or (rarely) a parse —
        // as long as nothing panics.
        let _ = parse_request(&bytes);
    }

    #[test]
    fn every_prefix_is_partial_or_typed_error(wire in arbitrary_request_wire()) {
        let full = parse_whole(&wire);
        for cut in 0..wire.len() {
            match parse_request(&wire[..cut]) {
                Ok(Parse::Partial) => {}
                Ok(Parse::Complete { .. }) =>
                    prop_assert!(false, "strict prefix of {cut} bytes parsed as complete"),
                Err(_) =>
                    prop_assert!(false, "prefix of a valid request reported an error"),
            }
        }
        prop_assert!(!full.target.is_empty());
    }

    #[test]
    fn split_reads_reassemble_identically(
        wire in arbitrary_request_wire(),
        cuts in proptest::collection::vec(1usize..7, 0..128),
    ) {
        // Two pipelined copies arrive in chunks of the drawn sizes, as a
        // server session buffers them: parse after each read, consume each
        // complete request, keep the rest for the next.
        let direct = parse_whole(&wire);
        let pipelined = [wire.as_slice(), wire.as_slice()].concat();
        let (mut buffer, mut sent, mut parsed) = (Vec::new(), 0, Vec::new());
        for cut in cuts.iter().copied().chain(std::iter::repeat(usize::MAX)) {
            if sent == pipelined.len() {
                break;
            }
            let end = sent.saturating_add(cut).min(pipelined.len());
            buffer.extend_from_slice(&pipelined[sent..end]);
            sent = end;
            while let Parse::Complete { value, consumed } =
                parse_request(&buffer).expect("a prefix of valid requests")
            {
                parsed.push(value);
                buffer.drain(..consumed);
            }
        }
        prop_assert_eq!(parsed, vec![direct.clone(), direct]);
        prop_assert!(buffer.is_empty());
    }

    #[test]
    fn truncation_mid_body_is_unexpected_eof(
        wire in arbitrary_request_wire(),
        drop_tail in 1usize..32,
    ) {
        // The generated request's headers and body as a response, chopped
        // short and read through a `Conn` that then reports EOF.
        let request = parse_whole(&wire);
        let mut response = Response::new(200, request.body);
        for (name, value) in &request.headers {
            if name.starts_with("x-") {
                response = response.with_header(name, value);
            }
        }
        let mut full = Vec::new();
        write_response(&mut full, &response, request.keep_alive).expect("write to a Vec");
        let truncated = &full[..full.len().saturating_sub(drop_tail)];
        match Conn::new(truncated).read_response() {
            Err(HttpError::UnexpectedEof { .. }) => {}
            other => prop_assert!(false, "expected UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn lying_content_length_is_rejected_not_buffered(excess in 1u64..1_000_000_000_000) {
        let declared = MAX_BODY_BYTES as u64 + excess;
        let wire = format!("POST /x HTTP/1.1\r\ncontent-length: {declared}\r\n\r\n");
        match parse_request(wire.as_bytes()) {
            Err(HttpError::BodyTooLarge { declared: d, .. }) => prop_assert_eq!(d, declared),
            other => prop_assert!(false, "expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_requests_give_typed_errors(
        wire in arbitrary_request_wire(),
        flip in 0usize..64,
        bit in 0u8..8,
    ) {
        // Flip one bit somewhere in the head; the parser must return either
        // a typed error or a (different) parse — never panic.
        let mut corrupted = wire.clone();
        let head_len = corrupted.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        let index = flip % head_len;
        corrupted[index] ^= 1 << bit;
        let _ = parse_request(&corrupted);
    }
}
