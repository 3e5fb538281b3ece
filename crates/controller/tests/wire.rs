//! The wire codec and the one JSON parser on the input nobody controls.
//!
//! * `decode(encode(x)) == x` for generated [`Request`]s of every method
//!   and generated [`Reply`]s, over strings made of quotes, backslashes,
//!   control characters and non-ASCII.
//! * On arbitrary bytes, on every prefix of a valid line (a torn write) and
//!   on single-byte mutations of one, [`Json::parse`], [`Request::decode`]
//!   and [`Reply::decode`] never panic, a strict prefix never decodes, and
//!   whatever does decode is *stable*: it re-encodes to a line that decodes
//!   to the same value — and so, the writer being deterministic, to the same
//!   bytes again. (Not "re-encodes to the input": whitespace, unlisted
//!   members, `\b` for U+0008 and `007` for `7` are accepted spellings the
//!   one writer never produces.)
//! * Duplicate keys are read first-wins and nesting past the parser's cap
//!   is refused by name, as `jsonv` documents.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use sdt_controller::wire::{Reply, Request};
use sdt_controller::Json;
use sdt_openflow::ControlConfig;

/// Text out of fuzz bytes: every escape class the writer knows (pair
/// escapes, named escapes, `\u00XX`), a lone `/`, and 2-, 3- and 4-byte
/// scalars.
fn text(bytes: &[u8]) -> String {
    const PALETTE: [char; 16] = [
        '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{7}', '\u{1f}', '/', 'a', 'Z', '7', ' ', 'é', '→',
        '😀',
    ];
    bytes.iter().map(|&b| PALETTE[usize::from(b) % PALETTE.len()]).collect()
}

/// A finite float with an arbitrary lexeme (`from_bits` reaches subnormals
/// and 300-digit values; the writer has no spelling for NaN or infinity).
fn finite(bits: u64) -> f64 {
    Some(f64::from_bits(bits)).filter(|x| x.is_finite()).unwrap_or(0.25)
}

/// A probability with an arbitrary lexeme: the bits' own value when it is
/// one, else their top 53 bits as a fraction of 2^53.
fn probability(bits: u64) -> f64 {
    Some(f64::from_bits(bits))
        .filter(|p| (0.0..=1.0).contains(p))
        .unwrap_or((bits >> 11) as f64 / (1u64 << 53) as f64)
}

/// The request of method number `kind`, filled from the fuzz inputs.
fn request(kind: usize, flags: u8, n: u64, strings: &[Vec<u8>]) -> Request {
    let s = |i: usize| text(&strings[i % strings.len()]);
    let id = (n % (u64::from(u32::MAX) + 1)) as u32;
    match kind {
        0 => Request::Ping,
        1 => Request::Status,
        2 => Request::Metrics,
        3 => Request::Snapshot,
        4 => Request::Shutdown,
        5 => Request::Verify { json: flags & 1 != 0, stats: flags & 2 != 0 },
        6 => Request::Admit { name: s(0), config: s(1) },
        7 => Request::Destroy { id },
        8 => Request::Migrate { id, config: s(0) },
        9 => Request::Slices {
            json: flags & 1 != 0,
            configs: (0..1 + usize::from(flags >> 6)).map(|i| (s(i), s(i + 1))).collect(),
        },
        _ => Request::Reconfigure {
            json: flags & 1 != 0,
            scheduled: (flags & 2 != 0).then(|| ControlConfig {
                drop_prob: probability(n),
                reorder_prob: probability(n.rotate_left(17)),
                seed: n,
                ..ControlConfig::reliable()
            }),
            from_path: s(0),
            from_text: s(1),
            to_text: s(2),
        },
    }
}

const METHODS: usize = 11;

/// What decodes is stable under its own writer.
fn assert_request_stable(line: &[u8]) {
    if let (id, Ok(req)) = Request::decode(line) {
        let again = req.encode(id);
        assert_eq!(Request::decode(again.as_bytes()), (id, Ok(req)), "{again}");
    }
}

fn assert_reply_stable(line: &str) {
    if let Ok(reply) = Reply::decode(line) {
        let again = reply.encode();
        assert_eq!(Reply::decode(&again), Ok(reply), "{again}");
    }
}

fn assert_json_stable(text: &str) {
    if let Ok(doc) = Json::parse(text) {
        let again = doc.emit();
        assert_eq!(Json::parse(&again).as_ref(), Ok(&doc), "{again}");
    }
}

/// All three decoders on one hostile line; invalid UTF-8 only ever reaches
/// [`Request::decode`], which takes the bytes off the socket.
fn assert_stable(line: &[u8]) {
    assert_request_stable(line);
    let text = String::from_utf8_lossy(line);
    assert_reply_stable(&text);
    assert_json_stable(&text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn requests_of_every_method_round_trip(
        flags in any::<u8>(),
        n in any::<u64>(),
        id in any::<u64>(),
        strings in collection::vec(collection::vec(any::<u8>(), 0..24), 1..4),
    ) {
        for kind in 0..METHODS {
            let req = request(kind, flags, n, &strings);
            let line = req.encode(id);
            prop_assert!(!line.contains('\n'), "a request is one line: {line}");
            prop_assert_eq!(Request::decode(line.as_bytes()), (id, Ok(req)), "{}", line);
        }
    }

    #[test]
    fn replies_round_trip(
        id in any::<u64>(),
        n in any::<u64>(),
        failed in any::<bool>(),
        strings in collection::vec(collection::vec(any::<u8>(), 0..24), 3..6),
    ) {
        let nested = Json::obj([("k", Json::Arr(vec![Json::Null, Json::fixed(finite(n), 3)]))]);
        let reply = Reply {
            output: text(&strings[0]),
            error: failed.then(|| text(&strings[1])),
            ..Reply::ok(id).with([
                ("slice", Json::u64(n)),
                (text(&strings[2]).as_str(), Json::str(text(&strings[1]))),
                ("nested", nested),
            ])
        };
        prop_assume!(!["id", "ok", "output", "error"].contains(&reply.extra[1].0.as_str()));
        let line = reply.encode();
        prop_assert!(!line.contains('\n'), "a reply is one line: {line}");
        prop_assert_eq!(Reply::decode(&line), Ok(reply), "{}", line);
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_what_decodes_is_stable(
        raw in collection::vec(any::<u8>(), 0..64),
        jsonish in collection::vec(any::<u8>(), 0..48),
    ) {
        assert_stable(&raw);
        // The same, from an alphabet that often lands on a document.
        const ALPHABET: &[&str] = &[
            "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u00", "1", "0", "-", ".", "e", "true",
            "null", " ", "\"id\"", "\"method\"", "\"params\"", "\"ping\"", "\"destroy\"", "\"ok\"",
            "\"output\"", "é", "\u{7}",
        ];
        let line: String =
            jsonish.iter().map(|&b| ALPHABET[usize::from(b) % ALPHABET.len()]).collect();
        assert_stable(line.as_bytes());
    }
}

/// One valid line per method and two replies, with the nastiest strings.
fn valid_lines() -> Vec<String> {
    let strings = [b"\x00\x01\x02\x05\x0d\x0f".to_vec(), vec![9, 14, 0, 1], vec![3, 15, 8]];
    let mut lines: Vec<String> = (0..METHODS)
        .map(|kind| request(kind, 0b0100_0011, 0x3fc9_9999_9999_999a, &strings).encode(41))
        .collect();
    lines.push(Reply::err(7, text(&strings[0])).encode());
    lines.push(Reply::ok(8).with([("slice", Json::u64(3))]).encode());
    lines
}

#[test]
fn no_strict_prefix_of_a_valid_line_decodes() {
    for line in valid_lines() {
        let bytes = line.as_bytes();
        assert!(Request::decode(bytes).1.is_ok() || Reply::decode(&line).is_ok(), "{line}");
        for cut in 0..bytes.len() {
            let torn = &bytes[..cut];
            assert!(Request::decode(torn).1.is_err(), "prefix {cut} of {line}");
            let torn = String::from_utf8_lossy(torn);
            assert!(Reply::decode(&torn).is_err(), "prefix {cut} of {line}");
            assert!(Json::parse(&torn).is_err(), "prefix {cut} of {line}");
        }
    }
}

#[test]
fn single_byte_mutations_never_panic_and_what_decodes_is_stable() {
    for line in valid_lines() {
        let mut bytes = line.into_bytes();
        for at in 0..bytes.len() {
            let original = bytes[at];
            for replacement in
                [b'"', b'\\', b'{', b'}', b'[', b',', b':', b'0', b'9', b'-', b'e', b' ', 0, 0xff, original ^ 1]
            {
                bytes[at] = replacement;
                assert_stable(&bytes);
            }
            bytes[at] = original;
        }
    }
}

#[test]
fn duplicate_keys_read_first_wins() {
    let (id, req) =
        Request::decode(br#"{"id":4,"id":5,"method":"destroy","method":"ping","params":{"id":1,"id":2}}"#);
    assert_eq!((id, req), (4, Ok(Request::Destroy { id: 1 })));
    let reply = Reply::decode(r#"{"id":1,"ok":false,"ok":true,"output":"a","output":"b","error":"e"}"#);
    assert_eq!(reply, Ok(Reply { output: "a".into(), ..Reply::err(1, "e") }));
}

#[test]
fn params_nested_past_the_cap_are_refused_by_name() {
    // `params` sits one level down, so 127 more levels is the deepest
    // document the parser takes and 128 more is one too many.
    let line = |depth: usize| {
        format!("{{\"id\":9,\"method\":\"ping\",\"params\":{}{}}}", "[".repeat(depth), "]".repeat(depth))
    };
    assert_eq!(Request::decode(line(127).as_bytes()), (9, Ok(Request::Ping)));
    let (id, req) = Request::decode(line(128).as_bytes());
    assert_eq!(id, 0, "a line that does not parse carries no readable id");
    assert!(req.is_err_and(|e| e.contains("nesting too deep")));
}

/// A string as long as the daemon's 1 MiB line cap allows. Validating the
/// rest of the document per character once made this line cost a reader
/// thread 169 s (15 s had it been ASCII); one pass takes milliseconds.
#[test]
fn a_line_at_the_daemons_cap_decodes_in_one_pass() {
    let config = "a→".repeat(1 << 18);
    let line = Request::Admit { name: String::new(), config: config.clone() }.encode(1);
    let t0 = std::time::Instant::now();
    let (_, req) = Request::decode(line.as_bytes());
    assert_eq!(req, Ok(Request::Admit { name: String::new(), config }));
    assert!(t0.elapsed() < std::time::Duration::from_secs(5), "{:?}", t0.elapsed());
}

#[test]
fn control_channel_probabilities_outside_0_1_are_refused_by_name() {
    let line = |member: &str| {
        format!(
            "{{\"id\":3,\"method\":\"reconfigure\",\"params\":{{\"scheduled\":true,{member},\
             \"from_path\":\"a\",\"from_text\":\"\",\"to_text\":\"\"}}}}"
        )
    };
    for (key, value) in [("drop", "2"), ("drop", "-1"), ("reorder", "1.5"), ("reorder", "-0.25")] {
        let (id, req) = Request::decode(line(&format!("\"{key}\":{value}")).as_bytes());
        assert_eq!(id, 3);
        let err = req.unwrap_err();
        assert!(err.starts_with(&format!("reconfigure: {key}: ")), "{err}");
        assert!(err.contains("not a probability"), "{err}");
    }
    // The ends of the range are probabilities.
    for (drop, reorder) in [(0.0, 1.0), (1.0, 0.0)] {
        let (_, req) = Request::decode(
            line(&format!("\"drop\":{drop:?},\"reorder\":{reorder:?}")).as_bytes(),
        );
        let Ok(Request::Reconfigure { scheduled: Some(channel), .. }) = req else {
            panic!("{req:?}")
        };
        assert_eq!((channel.drop_prob, channel.reorder_prob), (drop, reorder));
    }
}

/// A loss profile describes the control channel of a scheduled install: a
/// `reconfigure` with a non-default `drop`, `reorder` or `seed` and no
/// `scheduled: true` is refused by name, not run as a reliable one-shot
/// install. The defaults the writer emits for an unscheduled request pass.
#[test]
fn a_loss_profile_without_scheduled_is_refused() {
    let line = |members: &str| {
        format!(
            "{{\"id\":4,\"method\":\"reconfigure\",\"params\":{{{members}\
             \"from_path\":\"a\",\"from_text\":\"\",\"to_text\":\"\"}}}}"
        )
    };
    for profile in ["\"drop\":0.2,", "\"reorder\":0.3,", "\"seed\":7,"] {
        for scheduled in ["", "\"scheduled\":false,"] {
            let (id, req) = Request::decode(line(&format!("{scheduled}{profile}")).as_bytes());
            assert_eq!(id, 4);
            let err = req.unwrap_err();
            assert!(err.starts_with("reconfigure: ") && err.contains("scheduled"), "{err}");
        }
        let (_, req) = Request::decode(line(&format!("\"scheduled\":true,{profile}")).as_bytes());
        assert!(matches!(req, Ok(Request::Reconfigure { scheduled: Some(_), .. })), "{req:?}");
    }
    let (_, req) = Request::decode(line("\"drop\":0,\"reorder\":0,\"seed\":0,").as_bytes());
    assert!(matches!(req, Ok(Request::Reconfigure { scheduled: None, .. })), "{req:?}");
}
