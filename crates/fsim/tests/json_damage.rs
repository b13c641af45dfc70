//! `Json::parse` on damaged input: an error or a value, never a panic.
//!
//! The durable checkpoint form is read back only where a state enters the
//! process, so tests — not every run — carry the parser. The input is a
//! rendered `vfpga-ckpt/3` image (the one `vfpga`'s image tests pin), given
//! the damage `vfpga`'s `sweep_damage` gives the image reader, and more:
//! every truncation; every structural character and every digit blanked,
//! turned into garbage, into each structural character, a quote, a
//! backslash, a minus sign, a zero, an exponent, a point and a non-ASCII
//! byte; every other byte into what opens a string, an escape, a UTF-8
//! sequence or an object. What still parses must render to text that parses
//! and renders to the same text again. (The trees themselves may differ:
//! `-0` parses to `Int(0)`, which renders `0`, which parses to `UInt(0)` —
//! a non-negative `Int` has no rendering of its own, and the strict image
//! reader rejects every `Int`.)

use fsim::json::Json;

const IMAGE: &str = include_str!("../../vfpga/golden/ckpt_small.json");

/// Parse `bytes` if they are text at all; a value's rendering must be a
/// fixed point.
fn parse(bytes: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return false; // `parse` takes `&str`: not its input
    };
    match Json::parse(text) {
        Ok(v) => {
            let rendered = v.render();
            let again = Json::parse(&rendered).expect("a rendering parses");
            assert_eq!(again.render(), rendered, "re-render");
            true
        }
        Err(e) => {
            assert!(e.at <= bytes.len(), "error offset past the input");
            false
        }
    }
}

#[test]
fn the_undamaged_image_parses() {
    assert!(parse(IMAGE.as_bytes()));
}

#[test]
fn every_truncation_is_an_error() {
    let body = IMAGE.trim_end();
    for cut in 0..body.len() {
        assert!(!parse(&body.as_bytes()[..cut]), "prefix of {cut} bytes");
    }
}

/// What any byte is turned into: what changes how the bytes around it are
/// read — a quote, an escape, half a UTF-8 sequence, an opening brace.
const OPENERS: &[u8] = b"\"\\\xc3{";
/// What a structural character or a digit is turned into as well; on a
/// letter or a blank these are one more string or one more blank.
const SHAPERS: &[u8] = b" x}[]:,'-0e.";

#[test]
fn every_substituted_byte_parses_or_fails_cleanly() {
    let mut bytes = IMAGE.as_bytes().to_vec();
    let (mut parsed, mut failed) = (0u32, 0u32);
    for at in 0..bytes.len() {
        let orig = bytes[at];
        let shapes_the_tree = orig.is_ascii_digit() || b"{}[]:,\"".contains(&orig);
        let more = if shapes_the_tree { SHAPERS } else { &[] };
        for &damage in OPENERS.iter().chain(more).filter(|&&d| d != orig) {
            bytes[at] = damage;
            if parse(&bytes) {
                parsed += 1;
            } else {
                failed += 1;
            }
        }
        bytes[at] = orig;
    }
    // Both outcomes occur: damage inside a string or a number often still
    // parses, damage to the structure does not.
    assert!(parsed > 0 && failed > 0, "{parsed} parsed, {failed} failed");
}

#[test]
fn every_structural_byte_swapped_for_its_confusable_is_an_error() {
    let mut bytes = IMAGE.as_bytes().to_vec();
    for at in 0..bytes.len() {
        let orig = bytes[at];
        let confusable = match orig {
            b'{' => b'[',
            b'[' => b'{',
            b'}' => b']',
            b']' => b'}',
            b':' => b',',
            b',' => b':',
            _ => continue,
        };
        bytes[at] = confusable;
        assert!(!parse(&bytes), "byte {at} '{}' swapped", orig as char);
        bytes[at] = orig;
    }
}
