//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The paper's ethics protocol (§3.4) stores only one-way hashes of phone
//! numbers. The offline crate set has no hashing crate, so the digest is
//! implemented here and validated against the official NIST test vectors.
//! [`Sha256Sink`] lets formatted text stream into a digest without first
//! materializing it.

use std::fmt;

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bits = self
            .length_bits
            .wrapping_add((data.len() as u64).wrapping_mul(8));
        let mut input = data;
        // Fill a partial buffer first.
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        // Whole blocks straight from the input.
        while input.len() >= 64 {
            let (block, rest) = input.split_at(64);
            let mut arr = [0u8; 64];
            arr.copy_from_slice(block);
            self.compress(&arr);
            input = rest;
        }
        // Stash the tail.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.length_bits;
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
        self.update(&[0x80]);
        // `update` adjusted length_bits for the pad byte; restore it below by
        // writing the saved value. Pad with zeros until 56 mod 64.
        while self.buffered != 56 {
            let zeros = [0u8; 1];
            // Update without touching length accounting: do it manually.
            self.buffer[self.buffered] = zeros[0];
            self.buffered += 1;
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// Bytes a [`Sha256Sink`] gathers before absorbing them into the hasher.
const SINK_FLUSH: usize = 8 * 1024;

/// A buffered [`fmt::Write`] sink over a [`Sha256`]: text written to it
/// is gathered in one reusable buffer and absorbed a few kilobytes at a
/// time, so hashing a canonical multi-line serialization never holds
/// the whole serialization in memory. The digest equals the one-shot
/// digest of the concatenated writes.
#[derive(Debug, Clone)]
pub struct Sha256Sink {
    hasher: Sha256,
    buf: String,
}

impl Default for Sha256Sink {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256Sink {
    /// A fresh sink.
    pub fn new() -> Sha256Sink {
        Sha256Sink {
            hasher: Sha256::new(),
            buf: String::with_capacity(SINK_FLUSH + 256),
        }
    }

    /// The pending buffer, for encoders that append to a `String`
    /// directly: whatever they push is hashed as if written with
    /// [`fmt::Write::write_str`].
    pub fn buffer_mut(&mut self) -> &mut String {
        if self.buf.len() >= SINK_FLUSH {
            self.flush();
        }
        &mut self.buf
    }

    fn flush(&mut self) {
        self.hasher.update(self.buf.as_bytes());
        self.buf.clear();
    }

    /// Absorb what is pending and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        self.flush();
        self.hasher.finalize()
    }
}

impl fmt::Write for Sha256Sink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.buffer_mut().push_str(s);
        Ok(())
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 returning lowercase hex.
pub fn sha256_hex(data: &[u8]) -> String {
    to_hex(&sha256(data))
}

/// Lowercase hex encoding of arbitrary bytes.
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[usize::from(b >> 4)] as char);
        s.push(DIGITS[usize::from(b & 0xf)] as char);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST / well-known test vectors.
    #[test]
    fn vector_empty() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn vector_abc() {
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn vector_two_blocks() {
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256_hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0u32..10_000).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256(&data);
        // Feed in awkward chunk sizes crossing block boundaries.
        let mut h = Sha256::new();
        let mut rest = &data[..];
        let sizes = [1usize, 63, 64, 65, 7, 128, 300];
        let mut i = 0;
        while !rest.is_empty() {
            let take = sizes[i % sizes.len()].min(rest.len());
            h.update(&rest[..take]);
            rest = &rest[take..];
            i += 1;
        }
        assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn exact_block_sizes() {
        // 55, 56, 63, 64 bytes hit all the padding edge cases.
        for n in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0x5au8; n];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "mismatch at length {n}");
        }
    }

    #[test]
    fn sink_digest_equals_oneshot() {
        use std::fmt::Write as _;
        let text: String = (0u32..40_000)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        // Small writes around the block size, then writes that end just
        // short of, exactly on, and past the flush boundary, and one
        // larger than the whole buffer.
        let sizes = [
            1usize,
            63,
            64,
            65,
            SINK_FLUSH - 1 - (1 + 63 + 64 + 65),
            2,
            SINK_FLUSH - 1,
            1,
            SINK_FLUSH + 1,
            3 * SINK_FLUSH,
            7,
        ];
        let mut sink = Sha256Sink::new();
        let mut rest = text.as_str();
        for size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at((*size).min(rest.len()));
            sink.write_str(head).unwrap();
            rest = tail;
        }
        assert_eq!(sink.finalize(), sha256(text.as_bytes()));

        // Encoders appending to the pending buffer hash the same bytes.
        let mut sink = Sha256Sink::new();
        for chunk in text.as_bytes().chunks(100) {
            let chunk = std::str::from_utf8(chunk).unwrap();
            sink.buffer_mut().push_str(chunk);
        }
        assert_eq!(sink.finalize(), sha256(text.as_bytes()));
        assert_eq!(Sha256Sink::new().finalize(), sha256(b""));
    }

    #[test]
    fn hex_encoding() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x10]), "00ff10");
        assert_eq!(to_hex(&[]), "");
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"+49151123456"), sha256(b"+49151123457"));
    }
}
