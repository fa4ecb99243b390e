//! A multiply-xor hasher for memo-internal integer keys.
//!
//! SipHash's per-hasher setup dominates when the hashed value is a handful
//! of small integers. Two hot paths hash exactly that: the memo's
//! hash-consing index (an interned operator id plus child group ids,
//! probed on every insert and every merge-time rehash) and `mqo-core`'s
//! structural group fingerprints (every live expression on each evolution
//! commit). Neither keys untrusted input — operator payloads from
//! user-submitted plans stay on SipHash in the memo's operator index — so
//! DoS resistance is not required, only 64-bit spread, which the Fx-style
//! mix provides.

use std::hash::{BuildHasherDefault, Hasher};

/// Fx-style multiply-xor hasher (see the module docs for where it is
/// safe to use).
#[derive(Clone, Copy, Debug, Default)]
pub struct FpHasher(u64);

/// [`std::collections::HashMap`] hasher state for [`FpHasher`].
pub type FpBuildHasher = BuildHasherDefault<FpHasher>;

impl FpHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FpHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.mix(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            bytes = &bytes[8..];
        }
        if !bytes.is_empty() {
            let mut rest = [0u8; 8];
            rest[..bytes.len()].copy_from_slice(bytes);
            // Length is folded in so a short tail never aliases its own
            // zero-padding (std Hash impls already delimit variable-length
            // data, this is belt and braces).
            self.mix(u64::from_le_bytes(rest) ^ ((bytes.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}
