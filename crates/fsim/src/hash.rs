//! FNV-1a-shaped hashing: the device digest, the bitstream checksum and
//! the netlist content hash.
//!
//! [`Fnv`] folds bytes one at a time, as FNV-1a does (xor the byte in,
//! then multiply by the prime), and folds a `u64` as its eight
//! little-endian bytes. The multiplier is a parameter because the
//! workspace's hash is not quite FNV-1a-64: the device digest, the
//! bitstream checksum and the netlist content hash were first written with
//! `0x1000_0000_01b3` (2^44 + 0x1b3) where FNV-64's prime is
//! `0x100_0000_01b3` (2^40 + 0x1b3). Their values are pinned (goldens,
//! compile-cache file names, the benchmark's `sim_digest`), so they keep
//! that multiplier as [`Digest`]; [`Fnv1a`] is the published function,
//! which the tests hold to its reference vectors.
//!
//! Every shortcut here is exact, for any multiplier. Two word shapes skip
//! the per-byte loop, and they are the ones a device is made of:
//! - **Zero high bytes.** Folding a zero byte is a multiply by the prime
//!   `P`, so a word whose top `k` bytes are zero is its low `8 - k` bytes
//!   followed by one multiply by `P^k`. This covers zero flip-flop words,
//!   unused IOBs and small codes.
//! - **The all-ones word**, an unconfigured cell. `h ^ 0xFF` differs from
//!   `h` by an amount that depends only on `h`'s low byte, and the low byte
//!   of a sum or product depends only on the low bytes of its operands. So
//!   the eight steps are `h·P^8` plus a correction chosen by `h & 0xFF`
//!   alone, from a table built at compile time.

/// The FNV-1a-64 offset basis: the hash of no input.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-64's prime.
pub const FNV64_PRIME: u64 = 0x100_0000_01b3;

/// The multiplier of the workspace's pinned digests.
pub const DIGEST_PRIME: u64 = 0x1000_0000_01b3;

/// The published FNV-1a-64.
pub type Fnv1a = Fnv<FNV64_PRIME>;

/// The workspace's content hash: `fpga::Device::state_digest`,
/// `fpga::Bitstream::compute_crc` and `netlist::Netlist::content_hash`.
pub type Digest = Fnv<DIGEST_PRIME>;

/// A running FNV-1a-shaped hash with multiplier `PRIME`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv<const PRIME: u64>(u64);

impl<const PRIME: u64> Default for Fnv<PRIME> {
    fn default() -> Self {
        Fnv::new()
    }
}

impl<const PRIME: u64> Fnv<PRIME> {
    /// `PRIME^k` for `k` in `0..=8`.
    const POW: [u64; 9] = {
        let mut pow = [1u64; 9];
        let mut k = 1;
        while k < 9 {
            pow[k] = pow[k - 1].wrapping_mul(PRIME);
            k += 1;
        }
        pow
    };

    /// `ONES[b]`: what folding the all-ones word adds to `h·P^8` for a
    /// hash `h` whose low byte is `b`. Worked out from `h = b`, since only
    /// the low byte decides it.
    const ONES: [u64; 256] = {
        let mut table = [0u64; 256];
        let mut b = 0;
        while b < 256 {
            let mut h = b as u64;
            let mut i = 0;
            while i < 8 {
                h = (h ^ 0xFF).wrapping_mul(PRIME);
                i += 1;
            }
            table[b] = h.wrapping_sub((b as u64).wrapping_mul(Self::POW[8]));
            b += 1;
        }
        table
    };

    /// A hash of no input yet.
    pub const fn new() -> Self {
        Fnv(OFFSET)
    }

    /// Fold `bytes` in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// Fold `w` as its eight little-endian bytes.
    #[inline]
    pub fn word(&mut self, w: u64) {
        if w == u64::MAX {
            self.0 = self
                .0
                .wrapping_mul(Self::POW[8])
                .wrapping_add(Self::ONES[(self.0 & 0xFF) as usize]);
            return;
        }
        let live = 8 - (w.leading_zeros() / 8) as usize;
        self.bytes(&w.to_le_bytes()[..live]);
        self.0 = self.0.wrapping_mul(Self::POW[8 - live]);
    }

    /// The hash of everything folded so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// FNV-1a as defined: one byte at a time, eight bytes a word. The
    /// oracle [`Fnv::word`]'s fast paths must agree with.
    fn serial_word(mut h: u64, w: u64, prime: u64) -> u64 {
        for i in 0..8 {
            h = (h ^ ((w >> (i * 8)) & 0xFF)).wrapping_mul(prime);
        }
        h
    }

    #[test]
    fn published_vectors() {
        for (input, want) in [
            ("", 0xcbf2_9ce4_8422_2325u64),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut h = Fnv1a::new();
            h.bytes(input.as_bytes());
            assert_eq!(h.finish(), want, "{input:?}");
        }
    }

    /// Seeded words mixed with 0, `u64::MAX` and one-nonzero-byte values,
    /// folded into one running hash so every low byte comes up. An
    /// all-ones fast path without its correction table (`h·P^8` alone)
    /// fails at the first all-ones word.
    fn words_fold_as_their_bytes<const PRIME: u64>() {
        let mut specials = vec![0, u64::MAX, u64::MAX - 1];
        for byte in 0..8 {
            for v in [1u64, 0x80, 0xFF] {
                specials.push(v << (byte * 8));
            }
        }
        let mut rng = SimRng::new(0x5eed_f1a1);
        let (mut fast, mut serial) = (Fnv::<PRIME>::new(), OFFSET);
        for round in 0..20_000 {
            let w = match round % 4 {
                0 => *rng.choose(&specials),
                1 => rng.next_u64() >> rng.below(64),
                2 => u64::MAX,
                _ => rng.next_u64(),
            };
            fast.word(w);
            serial = serial_word(serial, w, PRIME);
            assert_eq!(fast.finish(), serial, "word {round}: {w:#x}");
        }
        // The all-ones table at every low byte.
        for low in 0..=255u64 {
            let h = (OFFSET & !0xFF) | low;
            let mut fast = Fnv::<PRIME>(h);
            fast.word(u64::MAX);
            assert_eq!(
                fast.finish(),
                serial_word(h, u64::MAX, PRIME),
                "low byte {low}"
            );
        }
    }

    #[test]
    fn fnv1a_words_fold_as_their_bytes() {
        words_fold_as_their_bytes::<FNV64_PRIME>();
    }

    #[test]
    fn digest_words_fold_as_their_bytes() {
        words_fold_as_their_bytes::<DIGEST_PRIME>();
    }
}
