//! Task descriptors and semantic hashing.
//!
//! A task is a registered function (a [`TaskKindId`]) applied to a list of
//! region requirements. Everything that can affect the dependence analysis
//! — the task kind, the region arguments, their fields, and their
//! privileges — is folded into a 64-bit [`TaskHash`] (§4.1): Apophenia's
//! insight is that a stream of such hashes is a string, so trace
//! identification becomes a string problem.

use crate::cost::Micros;
use crate::ids::{FieldId, RegionId, TaskKindId};
use crate::privilege::{Privilege, ReductionOp};
use crate::snapshot::{Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// One region argument of a task: which region, which fields, and with
/// what privilege.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RegionRequirement {
    /// The region argument.
    pub region: RegionId,
    /// Fields accessed (empty means "all fields").
    pub fields: Vec<FieldId>,
    /// Access privilege.
    pub privilege: Privilege,
}

impl RegionRequirement {
    /// A requirement on all fields of `region`.
    pub fn new(region: RegionId, privilege: Privilege) -> Self {
        Self { region, fields: Vec::new(), privilege }
    }

    /// Restricts the requirement to specific fields.
    pub fn with_fields(mut self, fields: impl IntoIterator<Item = FieldId>) -> Self {
        self.fields = fields.into_iter().collect();
        self
    }

    /// Whether two requirements touch overlapping field sets (empty = all).
    pub fn fields_overlap(&self, other: &RegionRequirement) -> bool {
        if self.fields.is_empty() || other.fields.is_empty() {
            return true;
        }
        self.fields.iter().any(|f| other.fields.contains(f))
    }
}

/// The 64-bit semantic hash of a task — the "token" of the paper's string
/// analyses.
///
/// Two tasks receive equal hashes iff every analysis-relevant property is
/// equal. Hash collisions between distinct tasks are possible in principle
/// (64-bit) and ignored, as in the paper's implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskHash(pub u64);

impl std::fmt::Display for TaskHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "H{:016x}", self.0)
    }
}

/// A task launch: the unit of work issued to the runtime.
///
/// Construct with [`TaskDesc::new`] and chain requirement builders:
///
/// ```
/// use tasksim::task::TaskDesc;
/// use tasksim::ids::{RegionId, TaskKindId};
/// use tasksim::cost::Micros;
///
/// let dot = TaskDesc::new(TaskKindId(1))
///     .reads(RegionId(0))
///     .reads(RegionId(1))
///     .writes(RegionId(2))
///     .gpu_time(Micros(350.0));
/// assert_eq!(dot.requirements.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDesc {
    /// The registered task variant.
    pub kind: TaskKindId,
    /// Region arguments in declaration order.
    pub requirements: Vec<RegionRequirement>,
    /// Execution-phase cost on its assigned GPU(s). Not part of the hash:
    /// execution time does not affect the dependence analysis.
    pub gpu_time: Micros,
}

impl TaskDesc {
    /// A task of `kind` with no arguments and zero execution cost.
    pub fn new(kind: TaskKindId) -> Self {
        Self { kind, requirements: Vec::new(), gpu_time: Micros::ZERO }
    }

    /// Adds a read-only requirement on `region`.
    pub fn reads(mut self, region: RegionId) -> Self {
        self.requirements.push(RegionRequirement::new(region, Privilege::ReadOnly));
        self
    }

    /// Adds a read-write requirement on `region`.
    pub fn read_writes(mut self, region: RegionId) -> Self {
        self.requirements.push(RegionRequirement::new(region, Privilege::ReadWrite));
        self
    }

    /// Adds a discarding-write requirement on `region`.
    pub fn writes(mut self, region: RegionId) -> Self {
        self.requirements.push(RegionRequirement::new(region, Privilege::WriteDiscard));
        self
    }

    /// Adds a reduction requirement on `region`.
    pub fn reduces(mut self, region: RegionId, op: ReductionOp) -> Self {
        self.requirements.push(RegionRequirement::new(region, Privilege::Reduce(op)));
        self
    }

    /// Adds an arbitrary requirement.
    pub fn with_requirement(mut self, req: RegionRequirement) -> Self {
        self.requirements.push(req);
        self
    }

    /// Sets the execution-phase cost.
    pub fn gpu_time(mut self, t: Micros) -> Self {
        self.gpu_time = t;
        self
    }

    /// Computes the semantic hash (FNV-1a over all analysis-relevant
    /// state).
    pub fn semantic_hash(&self) -> TaskHash {
        let mut h = Fnv1a::new();
        h.write(u64::from(self.kind.0));
        h.write(self.requirements.len() as u64);
        for req in &self.requirements {
            h.write(u64::from(req.region.0));
            h.write(req.privilege.hash_token());
            h.write(req.fields.len() as u64);
            for f in &req.fields {
                h.write(u64::from(f.0));
            }
        }
        TaskHash(h.finish())
    }
}

impl Snapshot for RegionRequirement {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u32(self.region.0);
        w.put_seq(&self.fields, |w, f| w.put_u32(f.0));
        match self.privilege {
            Privilege::ReadOnly => w.put_u8(0),
            Privilege::ReadWrite => w.put_u8(1),
            Privilege::WriteDiscard => w.put_u8(2),
            Privilege::Reduce(op) => {
                w.put_u8(3);
                w.put_u32(u32::from(op.0));
            }
        }
    }
}

impl Restore for RegionRequirement {
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let region = RegionId(r.get_u32()?);
        let fields = r.get_seq(|r| Ok(FieldId(r.get_u32()?)))?;
        let privilege = match r.get_u8()? {
            0 => Privilege::ReadOnly,
            1 => Privilege::ReadWrite,
            2 => Privilege::WriteDiscard,
            3 => {
                let op = u16::try_from(r.get_u32()?)
                    .map_err(|_| SnapshotError::Corrupt("reduction op exceeds u16".into()))?;
                Privilege::Reduce(crate::privilege::ReductionOp(op))
            }
            t => return Err(SnapshotError::Corrupt(format!("invalid privilege tag {t}"))),
        };
        Ok(Self { region, fields, privilege })
    }
}

impl Snapshot for TaskDesc {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u32(self.kind.0);
        w.put_seq(&self.requirements, |w, req| req.snapshot(w));
        w.put_f64(self.gpu_time.0);
    }
}

impl Restore for TaskDesc {
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let kind = TaskKindId(r.get_u32()?);
        let requirements = r.get_seq(RegionRequirement::restore)?;
        let gpu_time = Micros(r.get_f64()?);
        Ok(Self { kind, requirements, gpu_time })
    }
}

/// Minimal FNV-1a over u64 words. Deterministic across platforms and runs
/// (unlike `DefaultHasher`), which control replication requires: every
/// shard must compute identical token streams. Also the primitive behind
/// the [`crate::exec::OpLog`] stream digest — one copy of the constants,
/// one folding scheme.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Resumes from a captured [`Self::finish`] state — incremental
    /// digests fold one record at a time.
    pub(crate) fn resume(state: u64) -> Self {
        Fnv1a(state)
    }

    /// `PRIME^k` (wrapping) for `k` in `0..=8`: what folding a run of `k`
    /// zero bytes multiplies the state by.
    const ZERO_RUN: [u64; 9] = {
        let mut table = [1u64; 9];
        let mut k = 1;
        while k < 9 {
            table[k] = table[k - 1].wrapping_mul(Self::PRIME);
            k += 1;
        }
        table
    };

    /// Folds the eight little-endian bytes of `v`. Since `x ^ 0 == x`, the
    /// zero bytes above the highest non-zero one are a single multiply by
    /// a power of the prime — kinds, region ids, lengths, flags and op
    /// ids have one to three live bytes, so most words cost two or three
    /// dependent rounds instead of eight. Bit-identical to
    /// [`Self::write_bytewise`].
    pub(crate) fn write(&mut self, v: u64) {
        let live = 8 - (v.leading_zeros() / 8) as usize;
        let mut rest = v;
        for _ in 0..live {
            self.0 = (self.0 ^ (rest & 0xff)).wrapping_mul(Self::PRIME);
            rest >>= 8;
        }
        self.0 = self.0.wrapping_mul(Self::ZERO_RUN[8 - live]);
    }

    /// The textbook byte-at-a-time fold: the reference [`Self::write`] is
    /// tested against.
    #[cfg(test)]
    fn write_bytewise(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> TaskDesc {
        TaskDesc::new(TaskKindId(1)).reads(RegionId(0)).writes(RegionId(1))
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(base().semantic_hash(), base().semantic_hash());
    }

    #[test]
    fn hash_sensitive_to_kind() {
        let other = TaskDesc::new(TaskKindId(2)).reads(RegionId(0)).writes(RegionId(1));
        assert_ne!(base().semantic_hash(), other.semantic_hash());
    }

    #[test]
    fn hash_sensitive_to_regions() {
        let other = TaskDesc::new(TaskKindId(1)).reads(RegionId(9)).writes(RegionId(1));
        assert_ne!(base().semantic_hash(), other.semantic_hash());
    }

    #[test]
    fn hash_sensitive_to_privilege() {
        let other = TaskDesc::new(TaskKindId(1)).reads(RegionId(0)).read_writes(RegionId(1));
        assert_ne!(base().semantic_hash(), other.semantic_hash());
    }

    #[test]
    fn hash_sensitive_to_argument_order() {
        let a = TaskDesc::new(TaskKindId(1)).reads(RegionId(0)).reads(RegionId(1));
        let b = TaskDesc::new(TaskKindId(1)).reads(RegionId(1)).reads(RegionId(0));
        assert_ne!(a.semantic_hash(), b.semantic_hash());
    }

    #[test]
    fn hash_sensitive_to_fields() {
        let a = TaskDesc::new(TaskKindId(1)).with_requirement(
            RegionRequirement::new(RegionId(0), Privilege::ReadOnly).with_fields([FieldId(0)]),
        );
        let b = TaskDesc::new(TaskKindId(1)).with_requirement(
            RegionRequirement::new(RegionId(0), Privilege::ReadOnly).with_fields([FieldId(1)]),
        );
        assert_ne!(a.semantic_hash(), b.semantic_hash());
    }

    #[test]
    fn hash_insensitive_to_gpu_time() {
        let a = base().gpu_time(Micros(10.0));
        let b = base().gpu_time(Micros(99.0));
        assert_eq!(a.semantic_hash(), b.semantic_hash());
    }

    #[test]
    fn field_overlap_semantics() {
        let all = RegionRequirement::new(RegionId(0), Privilege::ReadOnly);
        let f0 = RegionRequirement::new(RegionId(0), Privilege::ReadOnly).with_fields([FieldId(0)]);
        let f1 = RegionRequirement::new(RegionId(0), Privilege::ReadOnly).with_fields([FieldId(1)]);
        assert!(all.fields_overlap(&f0), "empty field set means all fields");
        assert!(f0.fields_overlap(&all));
        assert!(!f0.fields_overlap(&f1));
        assert!(f0.fields_overlap(&f0));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Distinct small descriptors rarely collide; identical ones
            /// always agree. (We test determinism + sensitivity, not
            /// absence of collisions.)
            #[test]
            fn hash_function_properties(
                kind in 0u32..8,
                regions in proptest::collection::vec(0u32..8, 0..4),
            ) {
                let mut t = TaskDesc::new(TaskKindId(kind));
                for r in &regions {
                    t = t.reads(RegionId(*r));
                }
                prop_assert_eq!(t.semantic_hash(), t.clone().semantic_hash());
                // Appending one more requirement must change the hash.
                let ext = t.clone().reads(RegionId(100));
                prop_assert_ne!(t.semantic_hash(), ext.semantic_hash());
            }

            /// The zero-skipping fold against the byte-at-a-time loop,
            /// chained through `resume` the way the op-log digest folds
            /// one record at a time: the extremes, every live-byte count,
            /// execution times as `f64` bits, and random words.
            #[test]
            fn zero_skipping_fold_equals_the_bytewise_fold(
                short in proptest::collection::vec((1usize..8, any::<u64>()), 0..16),
                quarter_micros in proptest::collection::vec(0u32..40_000_000, 0..8),
                words in proptest::collection::vec(any::<u64>(), 0..16),
                resume_every in 1usize..5,
            ) {
                let short = short.iter().map(|&(bytes, v)| v >> (64 - 8 * bytes));
                let fixed = [0, u64::MAX, 1, 0x0100, 350.0f64.to_bits(), 1 << 63];
                let input: Vec<u64> = (fixed.into_iter())
                    .chain(short)
                    .chain(quarter_micros.iter().map(|&q| (f64::from(q) / 4.0).to_bits()))
                    .chain(words)
                    .collect();
                let (mut fast, mut slow) = (Fnv1a::new(), Fnv1a::new());
                for (i, &v) in input.iter().enumerate() {
                    if i % resume_every == 0 {
                        fast = Fnv1a::resume(fast.finish());
                        slow = Fnv1a::resume(slow.finish());
                    }
                    fast.write(v);
                    slow.write_bytewise(v);
                    prop_assert_eq!(fast.finish(), slow.finish(), "after word {} ({:#x})", i, v);
                }
            }
        }
    }
}
