//! The byte-exact payload check every real-byte run shares.
//!
//! A sender sends [`payload`]`(src, dst, bytes)` and the receiver checks it
//! with [`verify`]: the length and every byte's fill pattern. A run whose
//! receivers all verify delivered every byte it owed, so real-byte runs
//! double as end-to-end correctness tests.

/// Deterministic fill byte for a message, so receivers can verify payloads.
fn fill_byte(src: usize, dst: usize) -> u8 {
    (src.wrapping_mul(31).wrapping_add(dst.wrapping_mul(17)) % 251) as u8
}

/// The `bytes`-long buffer sender `src` sends to receiver `dst`: every byte
/// is the pair's fill byte, so [`verify`] can check it on arrival.
pub fn payload(src: usize, dst: usize, bytes: u64) -> Vec<u8> {
    vec![fill_byte(src, dst); bytes as usize]
}

/// Checks that `buf` is exactly the [`payload`] of `src → dst` with
/// `expected_len` bytes.
///
/// # Panics
///
/// Panics naming the pair when the length or any byte differs.
pub fn verify(buf: &[u8], src: usize, dst: usize, expected_len: u64) {
    assert_eq!(
        buf.len() as u64,
        expected_len,
        "message {src}->{dst} truncated"
    );
    let fill = fill_byte(src, dst);
    assert!(
        buf.iter().all(|&b| b == fill),
        "message {src}->{dst} corrupted"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "message 1->2 corrupted")]
    fn verify_catches_a_wrong_middle_byte() {
        let mut buf = payload(1, 2, 9);
        buf[4] ^= 1;
        verify(&buf, 1, 2, 9);
    }
}
