//! Dynamic dependence analysis.
//!
//! The serial analysis at the heart of an implicitly parallel runtime: for
//! each issued task, find every earlier task it must be ordered after,
//! based on aliasing region arguments with conflicting privileges. This is
//! the work whose per-task cost `α` (~1 ms in Legion) tracing memoizes —
//! the simulator charges for it via [`crate::cost::CostModel`], but also
//! *performs* it, because trace templates memoize its results and the
//! correctness of replay (and of Apophenia's validity argument) rests on
//! the memoized edges being the real ones.
//!
//! The frontier algorithm is the standard epoch scheme: per region tree we
//! keep a frontier of earlier users; a new full-covering writer retires
//! every frontier entry it dominates (any later task conflicting with a
//! retired entry necessarily conflicts with the writer, and the writer is
//! ordered after the entry, so transitivity preserves all orderings).
//! Readers and reductions accumulate until retired.

use crate::ids::{IdHash, OpId, RegionId};
use crate::region::RegionForest;
use crate::snapshot::{Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::task::{RegionRequirement, TaskDesc};
use std::collections::HashMap;

/// One frontier entry: an earlier task's use of a region.
#[derive(Debug, Clone)]
struct User {
    op: OpId,
    req: RegionRequirement,
}

/// One region tree's frontier, split by conflict class. Pure readers can
/// never conflict with later *reads*, so keeping them apart lets a read
/// requirement skip the reader scan entirely — without the split, a
/// region that is only ever read (a constant table, a broadcast operand)
/// accumulates readers forever and every later read rescans them all,
/// turning read-heavy streams quadratic.
#[derive(Debug, Default)]
struct Frontier {
    /// Earlier writers and reducers: every later requirement scans these.
    others: Vec<User>,
    /// Earlier pure readers: scanned only by non-read requirements.
    readers: Vec<User>,
}

/// The dependence analyzer. Feed it tasks in program order with
/// [`DependenceAnalyzer::analyze_into`]; it writes each task's
/// predecessors into a caller-owned buffer.
#[derive(Debug, Default)]
pub struct DependenceAnalyzer {
    /// Frontier of users, keyed by region-tree root.
    frontiers: HashMap<RegionId, Frontier, IdHash>,
}

impl DependenceAnalyzer {
    /// Creates an empty analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Analyzes `task` as operation `op`, returning its dependence edges
    /// (sorted, deduplicated op ids of earlier tasks it must follow) in a
    /// fresh vector. [`Self::analyze_into`] reuses a buffer instead.
    pub fn analyze(&mut self, op: OpId, task: &TaskDesc, forest: &RegionForest) -> Vec<OpId> {
        let mut preds = Vec::new();
        self.analyze_into(op, task, forest, &mut preds);
        preds
    }

    /// Analyzes `task` as operation `op`, replacing the contents of
    /// `preds` with its dependence edges (sorted, deduplicated op ids of
    /// earlier tasks it must follow). A buffer reused across tasks keeps
    /// its capacity, so a warm analysis allocates only when a frontier
    /// grows.
    pub fn analyze_into(
        &mut self,
        op: OpId,
        task: &TaskDesc,
        forest: &RegionForest,
        preds: &mut Vec<OpId>,
    ) {
        preds.clear();
        for req in &task.requirements {
            let root = forest.root(req.region);
            let frontier = self.frontiers.entry(root).or_default();
            let scan = |user: &User, preds: &mut Vec<OpId>| {
                if user.req.privilege.conflicts_with(req.privilege)
                    && forest.may_alias(user.req.region, req.region)
                    && user.req.fields_overlap(req)
                {
                    preds.push(user.op);
                }
            };
            for user in &frontier.others {
                scan(user, preds);
            }
            let is_read = req.privilege == crate::privilege::Privilege::ReadOnly;
            if !is_read {
                // Read/read pairs never conflict, so reads skip this scan.
                for user in &frontier.readers {
                    scan(user, preds);
                }
            }
            // Retirement: a writer that covers an entry dominates it.
            if matches!(
                req.privilege,
                crate::privilege::Privilege::ReadWrite | crate::privilege::Privilege::WriteDiscard
            ) {
                frontier.others.retain(|user| !(covers(forest, req, &user.req)));
                frontier.readers.retain(|user| !(covers(forest, req, &user.req)));
            }
            let user = User { op, req: req.clone() };
            if is_read {
                frontier.readers.push(user);
            } else {
                frontier.others.push(user);
            }
        }
        preds.sort_unstable();
        preds.dedup();
        // A task never depends on itself (it may use the same region twice).
        preds.retain(|&p| p != op);
    }

    /// Clears all frontier state (used at shard boundaries in tests).
    pub fn reset(&mut self) {
        self.frontiers.clear();
    }

    /// Total frontier entries currently tracked (a measure of analysis
    /// state size).
    pub fn frontier_size(&self) -> usize {
        self.frontiers.values().map(|f| f.others.len() + f.readers.len()).sum()
    }
}

fn snapshot_users(w: &mut SnapshotWriter, users: &[User]) {
    w.put_seq(users, |w, u| {
        w.put_u64(u.op.0);
        u.req.snapshot(w);
    });
}

fn restore_users(r: &mut SnapshotReader<'_>) -> Result<Vec<User>, SnapshotError> {
    r.get_seq(|r| Ok(User { op: OpId(r.get_u64()?), req: RegionRequirement::restore(r)? }))
}

impl Snapshot for DependenceAnalyzer {
    /// Frontier keys are written in sorted order so identical analyzer
    /// states serialize to identical bytes despite the hash map.
    fn snapshot(&self, w: &mut SnapshotWriter) {
        let mut roots: Vec<RegionId> = self.frontiers.keys().copied().collect();
        roots.sort_unstable();
        w.put_seq(&roots, |w, root| {
            w.put_u32(root.0);
            let f = &self.frontiers[root];
            snapshot_users(w, &f.others);
            snapshot_users(w, &f.readers);
        });
    }
}

impl Restore for DependenceAnalyzer {
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let entries = r.get_seq(|r| {
            let root = RegionId(r.get_u32()?);
            let others = restore_users(r)?;
            let readers = restore_users(r)?;
            Ok((root, Frontier { others, readers }))
        })?;
        let mut frontiers = HashMap::with_capacity_and_hasher(entries.len(), IdHash::default());
        for (root, frontier) in entries {
            if frontiers.insert(root, frontier).is_some() {
                return Err(SnapshotError::Corrupt(format!("duplicate frontier for {root}")));
            }
        }
        Ok(Self { frontiers })
    }
}

/// Whether requirement `a` covers requirement `b`: `a`'s region is an
/// ancestor of (or equal to) `b`'s and `a`'s field set contains `b`'s.
fn covers(forest: &RegionForest, a: &RegionRequirement, b: &RegionRequirement) -> bool {
    // Ancestor test: walk b up to a.
    let mut r = b.region;
    let is_ancestor = loop {
        if r == a.region {
            break true;
        }
        match forest.parent(r) {
            Some(p) => r = p,
            None => break false,
        }
    };
    if !is_ancestor {
        return false;
    }
    a.fields.is_empty() || (!b.fields.is_empty() && b.fields.iter().all(|f| a.fields.contains(f)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FieldId, TaskKindId};
    use crate::privilege::{Privilege, ReductionOp};
    use crate::task::TaskDesc;

    fn setup() -> (RegionForest, DependenceAnalyzer) {
        (RegionForest::new(), DependenceAnalyzer::new())
    }

    fn run(
        an: &mut DependenceAnalyzer,
        forest: &RegionForest,
        tasks: &[TaskDesc],
    ) -> Vec<Vec<OpId>> {
        tasks.iter().enumerate().map(|(i, t)| an.analyze(OpId(i as u64), t, forest)).collect()
    }

    #[test]
    fn raw_dependence() {
        let (mut f, mut an) = setup();
        let r = f.create_region(1);
        let w = TaskDesc::new(TaskKindId(0)).writes(r);
        let rd = TaskDesc::new(TaskKindId(1)).reads(r);
        let deps = run(&mut an, &f, &[w, rd]);
        assert_eq!(deps[0], vec![]);
        assert_eq!(deps[1], vec![OpId(0)], "read depends on write");
    }

    #[test]
    fn independent_reads() {
        let (mut f, mut an) = setup();
        let r = f.create_region(1);
        let rd = TaskDesc::new(TaskKindId(1)).reads(r);
        let deps = run(&mut an, &f, &[rd.clone(), rd.clone(), rd]);
        assert!(deps.iter().all(Vec::is_empty), "reads are parallel: {deps:?}");
    }

    #[test]
    fn war_and_waw_dependences() {
        let (mut f, mut an) = setup();
        let r = f.create_region(1);
        let rd = TaskDesc::new(TaskKindId(0)).reads(r);
        let w1 = TaskDesc::new(TaskKindId(1)).writes(r);
        let w2 = TaskDesc::new(TaskKindId(2)).writes(r);
        let deps = run(&mut an, &f, &[rd, w1, w2]);
        assert_eq!(deps[1], vec![OpId(0)], "write-after-read");
        assert_eq!(deps[2], vec![OpId(1)], "write-after-write; reader retired");
    }

    #[test]
    fn writer_retires_frontier() {
        let (mut f, mut an) = setup();
        let r = f.create_region(1);
        let rd = TaskDesc::new(TaskKindId(0)).reads(r);
        let w = TaskDesc::new(TaskKindId(1)).writes(r);
        // Many reads, then a write, then a read: the final read must depend
        // only on the write (earlier readers retired).
        let deps = run(&mut an, &f, &[rd.clone(), rd.clone(), rd.clone(), w, rd]);
        assert_eq!(deps[3], vec![OpId(0), OpId(1), OpId(2)]);
        assert_eq!(deps[4], vec![OpId(3)]);
        assert_eq!(an.frontier_size(), 2, "only writer + last reader remain");
    }

    #[test]
    fn disjoint_partitions_are_parallel() {
        let (mut f, mut an) = setup();
        let top = f.create_region(1);
        let parts = f.partition(top, 2).unwrap();
        let w0 = TaskDesc::new(TaskKindId(0)).writes(parts[0]);
        let w1 = TaskDesc::new(TaskKindId(0)).writes(parts[1]);
        let wtop = TaskDesc::new(TaskKindId(1)).read_writes(top);
        let deps = run(&mut an, &f, &[w0, w1, wtop]);
        assert_eq!(deps[1], vec![], "disjoint siblings don't conflict");
        assert_eq!(deps[2], vec![OpId(0), OpId(1)], "parent conflicts with both");
    }

    #[test]
    fn parent_write_retires_children() {
        let (mut f, mut an) = setup();
        let top = f.create_region(1);
        let parts = f.partition(top, 2).unwrap();
        let w0 = TaskDesc::new(TaskKindId(0)).writes(parts[0]);
        let wtop = TaskDesc::new(TaskKindId(1)).writes(top);
        let r0 = TaskDesc::new(TaskKindId(2)).reads(parts[0]);
        let deps = run(&mut an, &f, &[w0, wtop, r0]);
        assert_eq!(deps[1], vec![OpId(0)]);
        assert_eq!(deps[2], vec![OpId(1)], "child read sees only parent write");
    }

    #[test]
    fn child_write_does_not_retire_parent() {
        let (mut f, mut an) = setup();
        let top = f.create_region(1);
        let parts = f.partition(top, 2).unwrap();
        let wtop = TaskDesc::new(TaskKindId(0)).writes(top);
        let w0 = TaskDesc::new(TaskKindId(1)).writes(parts[0]);
        let r1 = TaskDesc::new(TaskKindId(2)).reads(parts[1]);
        let deps = run(&mut an, &f, &[wtop, w0, r1]);
        assert_eq!(deps[1], vec![OpId(0)]);
        assert_eq!(deps[2], vec![OpId(0)], "sibling read still sees parent write");
    }

    #[test]
    fn reductions_commute() {
        let (mut f, mut an) = setup();
        let r = f.create_region(1);
        let sum = ReductionOp(0);
        let red = TaskDesc::new(TaskKindId(0)).reduces(r, sum);
        let rd = TaskDesc::new(TaskKindId(1)).reads(r);
        let deps = run(&mut an, &f, &[red.clone(), red.clone(), red, rd]);
        assert_eq!(deps[1], vec![], "same-op reductions commute");
        assert_eq!(deps[2], vec![]);
        assert_eq!(deps[3], vec![OpId(0), OpId(1), OpId(2)], "read fences reductions");
    }

    #[test]
    fn different_reduction_ops_conflict() {
        let (mut f, mut an) = setup();
        let r = f.create_region(1);
        let red0 = TaskDesc::new(TaskKindId(0)).reduces(r, ReductionOp(0));
        let red1 = TaskDesc::new(TaskKindId(1)).reduces(r, ReductionOp(1));
        let deps = run(&mut an, &f, &[red0, red1]);
        assert_eq!(deps[1], vec![OpId(0)]);
    }

    #[test]
    fn field_disjoint_writes_parallel() {
        let (mut f, mut an) = setup();
        let r = f.create_region(2);
        let wf0 = TaskDesc::new(TaskKindId(0)).with_requirement(
            RegionRequirement::new(r, Privilege::WriteDiscard).with_fields([FieldId(0)]),
        );
        let wf1 = TaskDesc::new(TaskKindId(0)).with_requirement(
            RegionRequirement::new(r, Privilege::WriteDiscard).with_fields([FieldId(1)]),
        );
        let rall = TaskDesc::new(TaskKindId(1)).reads(r);
        let deps = run(&mut an, &f, &[wf0, wf1, rall]);
        assert_eq!(deps[1], vec![], "disjoint fields don't conflict");
        assert_eq!(deps[2], vec![OpId(0), OpId(1)], "all-field read sees both");
    }

    #[test]
    fn separate_region_trees_independent() {
        let (mut f, mut an) = setup();
        let a = f.create_region(1);
        let b = f.create_region(1);
        let wa = TaskDesc::new(TaskKindId(0)).writes(a);
        let wb = TaskDesc::new(TaskKindId(0)).writes(b);
        let deps = run(&mut an, &f, &[wa, wb]);
        assert_eq!(deps[1], vec![]);
    }

    #[test]
    fn self_dependence_excluded() {
        let (mut f, mut an) = setup();
        let r = f.create_region(1);
        // A task reading and writing the same region must not depend on
        // itself.
        let t = TaskDesc::new(TaskKindId(0)).reads(r).writes(r);
        let deps = run(&mut an, &f, &[t]);
        assert_eq!(deps[0], vec![]);
    }

    #[test]
    fn frontier_stays_bounded_in_iterative_program() {
        // An iterative stencil-like loop must not leak frontier entries.
        let (mut f, mut an) = setup();
        let x = f.create_region(1);
        let y = f.create_region(1);
        for i in 0..200u64 {
            let step = TaskDesc::new(TaskKindId(0)).reads(x).writes(y);
            let copy = TaskDesc::new(TaskKindId(1)).reads(y).writes(x);
            an.analyze(OpId(2 * i), &step, &f);
            an.analyze(OpId(2 * i + 1), &copy, &f);
        }
        assert!(an.frontier_size() <= 8, "frontier grew to {}", an.frontier_size());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Reference O(n²) analysis: edge i→j iff any pair of requirements
        /// conflicts, with no transitivity-based pruning. The frontier
        /// algorithm may DROP edges implied by transitivity, so we check
        /// that orderings agree after transitive closure.
        fn naive_closure(forest: &RegionForest, tasks: &[TaskDesc]) -> Vec<Vec<bool>> {
            let n = tasks.len();
            let mut reach = vec![vec![false; n]; n];
            for j in 0..n {
                for i in 0..j {
                    let conflict = tasks[i].requirements.iter().any(|a| {
                        tasks[j].requirements.iter().any(|b| {
                            a.privilege.conflicts_with(b.privilege)
                                && forest.may_alias(a.region, b.region)
                                && a.fields_overlap(b)
                        })
                    });
                    if conflict {
                        reach[i][j] = true;
                    }
                }
            }
            // Transitive closure.
            #[allow(clippy::needless_range_loop)]
            for k in 0..n {
                for i in 0..k {
                    if reach[i][k] {
                        for j in k + 1..n {
                            if reach[k][j] {
                                reach[i][j] = true;
                            }
                        }
                    }
                }
            }
            reach
        }

        fn closure_of_edges(preds: &[Vec<OpId>]) -> Vec<Vec<bool>> {
            let n = preds.len();
            let mut reach = vec![vec![false; n]; n];
            for (j, ps) in preds.iter().enumerate() {
                for p in ps {
                    reach[p.index()][j] = true;
                }
            }
            #[allow(clippy::needless_range_loop)]
            for k in 0..n {
                for i in 0..k {
                    if reach[i][k] {
                        for j in k + 1..n {
                            if reach[k][j] {
                                reach[i][j] = true;
                            }
                        }
                    }
                }
            }
            reach
        }

        /// A forest with one partitioned tree and one task per spec entry:
        /// a requirement of the drawn privilege plus a read.
        fn stream(spec: &[(u8, u8, u8)]) -> (RegionForest, Vec<TaskDesc>) {
            let mut forest = RegionForest::new();
            let top = forest.create_region(1);
            let parts = forest.partition(top, 3).unwrap();
            let regions = [top, parts[0], parts[1], parts[2]];
            let tasks = spec
                .iter()
                .map(|&(priv_k, r1, r2)| {
                    let p = match priv_k {
                        0 => Privilege::ReadOnly,
                        1 => Privilege::ReadWrite,
                        _ => Privilege::WriteDiscard,
                    };
                    TaskDesc::new(TaskKindId(0))
                        .with_requirement(RegionRequirement::new(regions[r1 as usize], p))
                        .reads(regions[r2 as usize])
                })
                .collect();
            (forest, tasks)
        }

        proptest! {
            /// The frontier analysis preserves exactly the orderings of the
            /// naive quadratic analysis (up to transitive closure).
            #[test]
            fn agrees_with_naive_up_to_transitivity(
                spec in proptest::collection::vec((0u8..3, 0u8..4, 0u8..4), 1..40)
            ) {
                let (forest, tasks) = stream(&spec);
                let mut an = DependenceAnalyzer::new();
                let preds = run(&mut an, &forest, &tasks);
                let got = closure_of_edges(&preds);
                let expect = naive_closure(&forest, &tasks);
                prop_assert_eq!(got, expect);
            }

            /// Analysing into one reused buffer — never cleared by the
            /// caller, so it arrives holding the previous task's edges and
            /// stale capacity — yields exactly the fresh-vector edges.
            #[test]
            fn analyze_into_a_dirty_buffer_matches_analyze(
                spec in proptest::collection::vec((0u8..3, 0u8..4, 0u8..4), 1..40)
            ) {
                let (forest, tasks) = stream(&spec);
                let expect = run(&mut DependenceAnalyzer::new(), &forest, &tasks);
                let mut an = DependenceAnalyzer::new();
                let mut buf = vec![OpId(u64::MAX); 17];
                for (i, task) in tasks.iter().enumerate() {
                    an.analyze_into(OpId(i as u64), task, &forest, &mut buf);
                    prop_assert_eq!(&buf, &expect[i]);
                }
            }
        }
    }
}
