//! Content integrity: the CRC32 (IEEE 802.3) checksum that frames every
//! durable record the workspace writes.
//!
//! The durability layers (the study journal and the checkpoint/snapshot
//! codec) prepend a checksum frame to every record so that *bit-rot* —
//! silent corruption of bytes at rest, as opposed to the torn-tail and
//! stale-tmp windows a crash leaves — is detected on read instead of
//! being replayed into a study. The polynomial is the reflected IEEE one
//! (`0xEDB88320`), computed byte-wise over a 256-entry table baked in at
//! compile time; no external dependency and no `unsafe`.
//!
//! Frames render the checksum as exactly eight lowercase hex digits
//! ([`crc32_hex`]) so framed lines stay single-line, fixed-width, and
//! greppable. [`frame`] writes a frame and [`unframe`] checks one, for the
//! checkpoint's whole-body frame and the journal's per-record frame alike.

/// The reflected IEEE polynomial used by zlib, PNG, and Ethernet.
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

const TABLE: [u32; 256] = build_table();

/// The CRC32 (IEEE) checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    !crc
}

/// The checksum of `bytes` as the canonical eight-digit lowercase hex
/// frame token.
pub fn crc32_hex(bytes: &[u8]) -> String {
    format!("{:08x}", crc32(bytes))
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

/// Frames `body` for the wire: its checksum token, then `sep`, then `body`.
pub fn frame(body: &str, sep: char) -> String {
    format!("{}{sep}{body}", crc32_hex(body.as_bytes()))
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

    #[test]
    fn hex_roundtrip_is_canonical() {
        let hex = crc32_hex(b"hyperpower");
        assert_eq!(hex.len(), 8);
        assert_eq!(parse_crc32_hex(&hex), Some(crc32(b"hyperpower")));
        // Uppercase, short, long and non-hex tokens are all rejected.
        assert_eq!(parse_crc32_hex("CBF43926"), None);
        assert_eq!(parse_crc32_hex("cbf4392"), None);
        assert_eq!(parse_crc32_hex("cbf439261"), None);
        assert_eq!(parse_crc32_hex("cbf4392g"), None);
    }

    #[test]
    fn unframe_returns_the_body_of_a_valid_frame_only() {
        let framed = frame("{\"seed\": \"7\"}", ' ');
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
