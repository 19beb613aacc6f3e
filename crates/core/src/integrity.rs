//! Content integrity: the CRC32 (IEEE 802.3) checksum that frames every
//! durable record the workspace writes.
//!
//! The durability layers (the study journal and the checkpoint/snapshot
//! codec) prepend a checksum frame to every record so that *bit-rot* —
//! silent corruption of bytes at rest, as opposed to the torn-tail and
//! stale-tmp windows a crash leaves — is detected on read instead of
//! being replayed into a study. The polynomial is the reflected IEEE one
//! (`0xEDB88320`), computed eight bytes at a time ("slicing-by-8") over
//! eight 256-entry tables built at compile time, and byte-wise over the
//! first of them for the final `len % 8` bytes; no external dependency
//! and no `unsafe`.
//!
//! Frames render the checksum as exactly eight lowercase hex digits so
//! framed lines stay single-line, fixed-width, and greppable. [`frame`]
//! appends a frame to a caller's buffer and [`unframe`] checks one, for
//! the checkpoint's whole-body frame and the journal's per-record frame
//! alike.

/// The reflected IEEE polynomial used by zlib, PNG, and Ethernet.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the CRC of the single byte `b`; `TABLES[k][b]` is
/// that CRC carried through `k` more zero bytes, so eight lookups, one per
/// byte of a little-endian word, advance the checksum by the whole word.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const TABLES: [[u32; 256]; 8] = build_tables();

/// The CRC32 (IEEE) checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = !0u32;
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let [c0, c1, c2, c3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        crc = t7[usize::from(c0)]
            ^ t6[usize::from(c1)]
            ^ t5[usize::from(c2)]
            ^ t4[usize::from(c3)]
            ^ t3[usize::from(b4)]
            ^ t2[usize::from(b5)]
            ^ t1[usize::from(b6)]
            ^ t0[usize::from(b7)];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t0[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Parses an eight-digit lowercase hex frame token back to its checksum.
/// Returns `None` for anything that is not exactly the canonical form —
/// framing is detected syntactically, so near-misses must not parse.
pub fn parse_crc32_hex(token: &str) -> Option<u32> {
    if token.len() != 8
        || !token
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u32::from_str_radix(token, 16).ok()
}

/// Appends a frame to `out`: a checksum token, then `sep`, then the body
/// `write_body` appends. The token's place is reserved before the body is
/// written and filled in once the body is complete, so the body is written
/// once, straight into `out`.
pub fn frame(out: &mut String, sep: char, write_body: impl FnOnce(&mut String)) {
    let token_at = out.len();
    out.push_str("00000000");
    out.push(sep);
    let body_at = out.len();
    write_body(out);
    let crc = crc32(out.as_bytes().get(body_at..).unwrap_or_default());
    out.replace_range(token_at..token_at + 8, &format!("{crc:08x}"));
}

/// Splits a [`frame`]d record at its first `sep` and returns the body once
/// the checksum token before it matches the body's CRC32.
///
/// # Errors
///
/// What is wrong with the frame: no `sep`, a token that is not the
/// canonical eight hex digits, or a checksum that disagrees with the body.
pub fn unframe(framed: &str, sep: char) -> Result<&str, String> {
    let (token, body) = framed
        .split_once(sep)
        .ok_or_else(|| format!("no {sep:?} after a checksum token"))?;
    let expected =
        parse_crc32_hex(token).ok_or_else(|| format!("malformed checksum token {token:?}"))?;
    let actual = crc32(body.as_bytes());
    if actual != expected {
        return Err(format!(
            "checksum mismatch (recorded {expected:08x}, computed {actual:08x})"
        ));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_ieee_check_value() {
        // The standard check vector for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// `body` framed with `sep` into a fresh buffer.
    fn framed(body: &str, sep: char) -> String {
        let mut out = String::new();
        frame(&mut out, sep, |out| out.push_str(body));
        out
    }

    #[test]
    fn frames_lead_with_the_canonical_token() {
        assert_eq!(framed("123456789", ' '), "cbf43926 123456789");
        assert_eq!(framed("", '\n'), "00000000\n");
        // A frame appends to what the buffer already holds.
        let mut out = String::from("E ");
        frame(&mut out, ' ', |out| out.push_str("hyperpower"));
        assert_eq!(out, format!("E {:08x} hyperpower", crc32(b"hyperpower")));
    }

    #[test]
    fn hex_roundtrip_is_canonical() {
        let framed = framed("hyperpower", ' ');
        let (hex, _) = framed.split_once(' ').unwrap();
        assert_eq!(hex.len(), 8);
        assert_eq!(parse_crc32_hex(hex), Some(crc32(b"hyperpower")));
        // Uppercase, short, long and non-hex tokens are all rejected.
        assert_eq!(parse_crc32_hex("CBF43926"), None);
        assert_eq!(parse_crc32_hex("cbf4392"), None);
        assert_eq!(parse_crc32_hex("cbf439261"), None);
        assert_eq!(parse_crc32_hex("cbf4392g"), None);
    }

    #[test]
    fn unframe_returns_the_body_of_a_valid_frame_only() {
        let framed = framed("{\"seed\": \"7\"}", ' ');
        assert_eq!(unframe(&framed, ' '), Ok("{\"seed\": \"7\"}"));
        let (token, _) = framed.split_once(' ').unwrap();
        assert!(unframe(&format!("{token} {{\"seed\": \"8\"}}"), ' ')
            .unwrap_err()
            .starts_with("checksum mismatch"));
        assert!(unframe("{\"seed\": \"7\"}", ' ')
            .unwrap_err()
            .starts_with("malformed checksum token"));
        assert!(unframe(&framed, '\n')
            .unwrap_err()
            .starts_with("no '\\n' after"));
    }

    #[test]
    fn single_bit_flips_are_detected() {
        let payload = b"{\"index\": 3, \"error\": 0.125}".to_vec();
        let reference = crc32(&payload);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut rotted = payload.clone();
                rotted[byte] ^= 1 << bit;
                assert_ne!(crc32(&rotted), reference, "flip at {byte}:{bit}");
            }
        }
    }
}
