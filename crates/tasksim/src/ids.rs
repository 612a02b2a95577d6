//! Newtype identifiers used across the runtime.
//!
//! Every entity the dependence analysis reasons about gets a distinct id
//! type so that, e.g., a [`RegionId`] can never be confused with a
//! [`FieldId`] at a call site (C-NEWTYPE).

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index value.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// A logical region in the region forest.
    RegionId
);
id_type!(
    /// A field of a region's field space.
    FieldId
);
id_type!(
    /// A registered task variant ("task id" in Legion terms).
    TaskKindId
);
id_type!(
    /// A node (shard) of the machine.
    NodeId
);
id_type!(
    /// A trace identifier passed to `begin_trace` / `end_trace`.
    TraceId
);

/// A dynamically issued operation's position in the program order.
///
/// Unlike the `u32` ids above, programs can issue billions of operations,
/// so this is 64-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OpId(pub u64);

impl OpId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The next operation id in program order.
    pub fn next(self) -> OpId {
        OpId(self.0 + 1)
    }
}

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OpId({})", self.0)
    }
}

/// A [`std::hash::Hasher`] for maps keyed by the ids above: one 64×64 →
/// 128-bit multiply per key, its high half folded into the low half.
///
/// The keys are small integers, so SipHash's per-key rounds buy nothing
/// but time. A bare multiply is not enough either: it maps ids aligned to
/// `2^s` onto buckets whose low `s` bits are all zero, so a snapshot full
/// of such ids would turn every restore insert into a long probe. The
/// high half carries the aligned ids' entropy down into the low bits.
/// The constant is an odd word picked so that, for each alignment `2^s`
/// with `s ≤ 28`, 4096 consecutive aligned ids fill at least as many of
/// 4096 low-bit buckets as a random hash would, and nearly all of them at
/// `s = 16`. The hash is a pure function of the key, so iteration order
/// stays a function of the stream (and is still never relied on).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    const K: u64 = 0xd9e5_249a_6b0a_adb7;
}

impl std::hash::Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only reached by keys that are not a single integer; fold them
        // in byte-wise so any `Hash` type stays usable.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = self.0.rotate_left(32) ^ v;
    }

    fn finish(&self) -> u64 {
        let p = u128::from(self.0) * u128::from(Self::K);
        (p as u64) ^ (p >> 64) as u64
    }
}

/// The [`std::hash::BuildHasher`] of id-keyed maps
/// (`HashMap<RegionId, _, IdHash>`).
pub type IdHash = std::hash::BuildHasherDefault<IdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn id_hash_spreads_aligned_ids() {
        // Ids aligned to 2^16 (a hostile snapshot's choice) must still
        // land in nearly distinct low-bit buckets.
        let build = IdHash::default();
        let mut seen = vec![false; 4096];
        for k in 0..4096u32 {
            seen[(build.hash_one(RegionId(k << 16)) & 0xfff) as usize] = true;
        }
        let distinct = seen.iter().filter(|&&s| s).count();
        assert!(distinct >= 4000, "aligned ids hit only {distinct} of 4096 buckets");
    }

    #[test]
    fn id_hash_is_a_function_of_the_key() {
        let build = IdHash::default();
        assert_eq!(build.hash_one(TraceId(7)), build.hash_one(TraceId(7)));
        assert_ne!(build.hash_one(TraceId(7)), build.hash_one(TraceId(8)));
        assert_eq!(build.hash_one(OpId(7)), build.hash_one(7u64));
    }

    #[test]
    fn ids_are_distinct_types_with_indices() {
        let r = RegionId(7);
        assert_eq!(r.index(), 7);
        assert_eq!(RegionId::from(7u32), r);
        assert_eq!(format!("{r}"), "RegionId(7)");
    }

    #[test]
    fn op_id_ordering_and_next() {
        let a = OpId(1);
        assert!(a < a.next());
        assert_eq!(a.next(), OpId(2));
        assert_eq!(format!("{a}"), "OpId(1)");
    }
}
