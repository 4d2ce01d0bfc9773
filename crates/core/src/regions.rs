//! Compressible-region formation and packing (paper §4).
//!
//! Regions are the units of compression and decompression: sets of cold
//! basic blocks, initially grown as K-bounded DFS trees within one function,
//! kept only when profitable (`E < (1-γ)·I`), then greedily packed pairwise
//! while the packing saves space.

use std::collections::{BinaryHeap, HashSet};

use squash_cfg::link::block_emitted_words;
use squash_cfg::{AddrTarget, DataItem, FuncId, JumpTarget, Program, Term};

use crate::cold::ColdSet;
use crate::{JumpTableMode, RegionStrategy, SquashOptions};

/// A compressible region: a set of blocks, sorted by `(function, block)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Member blocks, sorted.
    pub blocks: Vec<(FuncId, usize)>,
}

impl Region {
    /// Whether the region contains the given block.
    pub fn contains(&self, f: FuncId, b: usize) -> bool {
        self.blocks.binary_search(&(f, b)).is_ok()
    }
}

/// Cross-reference information used to decide which region blocks need
/// entry stubs. Shared by region formation and layout so the two always
/// agree on stub counts.
#[derive(Debug, Clone)]
pub struct RefInfo {
    /// `intra_preds[f][b]`: intra-function predecessor blocks of `(f, b)`
    /// (branch, fall-through, and known jump-table edges).
    pub intra_preds: Vec<Vec<Vec<usize>>>,
    /// Whether function `f`'s entry block is referenced from outside it
    /// (direct call, tail jump, address taken in data, or program entry).
    pub entry_referenced: Vec<bool>,
    /// `data_referenced[f][b]`: block address taken in data (jump tables).
    pub data_referenced: Vec<Vec<bool>>,
}

/// Computes [`RefInfo`] for a program.
pub fn ref_info(program: &Program) -> RefInfo {
    let nfuncs = program.funcs.len();
    let mut intra_preds: Vec<Vec<Vec<usize>>> = program
        .funcs
        .iter()
        .map(|f| vec![Vec::new(); f.blocks.len()])
        .collect();
    let mut entry_referenced = vec![false; nfuncs];
    let mut data_referenced: Vec<Vec<bool>> = program
        .funcs
        .iter()
        .map(|f| vec![false; f.blocks.len()])
        .collect();
    entry_referenced[program.entry.0] = true;
    for (fi, f) in program.funcs.iter().enumerate() {
        let fid = FuncId(fi);
        for bi in 0..f.blocks.len() {
            for s in f.successors(bi, program, fid) {
                intra_preds[fi][s].push(bi);
            }
            for pi in &f.blocks[bi].insts {
                if let Some(callee) = pi.call {
                    entry_referenced[callee.0] = true;
                }
            }
            if let Term::Jump {
                target: JumpTarget::Func(g),
            }
            | Term::Cond {
                target: JumpTarget::Func(g),
                ..
            } = &f.blocks[bi].term
            {
                entry_referenced[g.0] = true;
            }
        }
    }
    for d in &program.data {
        for item in &d.items {
            match item {
                DataItem::Addr(AddrTarget::Func(g)) => entry_referenced[g.0] = true,
                DataItem::Addr(AddrTarget::Block(f, b)) => data_referenced[f.0][*b] = true,
                _ => {}
            }
        }
    }
    RefInfo {
        intra_preds,
        entry_referenced,
        data_referenced,
    }
}

/// The blocks of a region that need an entry stub: entered from outside the
/// region (intra-function edge from a non-member, a referenced function
/// entry, or a data-taken address).
pub fn entry_blocks(region: &Region, refs: &RefInfo) -> Vec<(FuncId, usize)> {
    let members: HashSet<(FuncId, usize)> = region.blocks.iter().copied().collect();
    let mut entries = Vec::new();
    for &(f, b) in &region.blocks {
        let externally_entered = (b == 0 && refs.entry_referenced[f.0])
            || refs.data_referenced[f.0][b]
            || refs.intra_preds[f.0][b]
                .iter()
                .any(|&p| !members.contains(&(f, p)));
        if externally_entered {
            entries.push((f, b));
        }
    }
    entries
}

/// Conservative estimate of a region's decompressed (buffer) image size in
/// words: block bodies, one expansion word per call (the `CreateStub`
/// prefix; the paper's `c_i`), and explicit terminators where fall-throughs
/// are not adjacent in the region's layout order.
pub fn estimate_image_words(program: &Program, blocks: &[(FuncId, usize)]) -> u32 {
    let mut total = 0u32;
    for (i, &(f, b)) in blocks.iter().enumerate() {
        let block = &program.func(f).blocks[b];
        total += block.insts.len() as u32;
        total += block.insts.iter().filter(|pi| pi.is_call()).count() as u32;
        let next_adjacent = |t: usize| blocks.get(i + 1) == Some(&(f, t));
        total += match &block.term {
            Term::Fall { next } => u32::from(!next_adjacent(*next)),
            Term::Cond { fall, .. } => 1 + u32::from(!next_adjacent(*fall)),
            Term::Jump { .. }
            | Term::IndirectJump { .. }
            | Term::Ret { .. }
            | Term::Exit
            | Term::Halt => 1,
        };
    }
    total
}

/// A terminator's contribution to the image-size estimate, separated from
/// the block body so candidate evaluation never re-walks instruction lists.
#[derive(Debug, Clone, Copy)]
enum TermCost {
    /// `Fall { next }`: one word unless `next` is laid out adjacently.
    Fall(usize),
    /// `Cond { fall, .. }`: one word, plus one unless `fall` is adjacent.
    Cond(usize),
    /// Jump / indirect / return / exit / halt: always one word.
    Fixed,
}

/// Precomputed per-block sizing: the adjacency-independent word count
/// (instructions plus one expansion word per call) and the terminator
/// shape. Region growth and packing evaluate thousands of candidate block
/// sets; with this table each evaluation is O(blocks) instead of
/// O(instructions).
#[derive(Debug)]
pub(crate) struct SizingTable {
    base: Vec<Vec<u32>>,
    term: Vec<Vec<TermCost>>,
}

impl SizingTable {
    pub(crate) fn build(program: &Program) -> SizingTable {
        let mut base = Vec::with_capacity(program.funcs.len());
        let mut term = Vec::with_capacity(program.funcs.len());
        for f in &program.funcs {
            let mut fb = Vec::with_capacity(f.blocks.len());
            let mut ft = Vec::with_capacity(f.blocks.len());
            for block in &f.blocks {
                let calls = block.insts.iter().filter(|pi| pi.is_call()).count() as u32;
                fb.push(block.insts.len() as u32 + calls);
                ft.push(match &block.term {
                    Term::Fall { next } => TermCost::Fall(*next),
                    Term::Cond { fall, .. } => TermCost::Cond(*fall),
                    Term::Jump { .. }
                    | Term::IndirectJump { .. }
                    | Term::Ret { .. }
                    | Term::Exit
                    | Term::Halt => TermCost::Fixed,
                });
            }
            base.push(fb);
            term.push(ft);
        }
        SizingTable { base, term }
    }

    /// [`estimate_image_words`] over a sorted member list, from the table.
    pub(crate) fn words_of(&self, blocks: &[(FuncId, usize)]) -> u32 {
        let mut total = 0u32;
        for (i, &(f, b)) in blocks.iter().enumerate() {
            total += self.cost(f, b, blocks.get(i + 1).copied());
        }
        total
    }

    /// [`SizingTable::words_of`] of the merge of two disjoint sorted member
    /// lists, walked with two pointers so candidate scoring in packing never
    /// materializes the union. Returns `None` as soon as the running total
    /// exceeds `cap` — the total only grows, so an over-`cap` prefix decides
    /// the K-bound check without finishing the walk.
    pub(crate) fn words_of_union(
        &self,
        a: &[(FuncId, usize)],
        b: &[(FuncId, usize)],
        cap: u32,
    ) -> Option<u32> {
        let (mut i, mut j) = (0, 0);
        let take = |i: &mut usize, j: &mut usize| match (a.get(*i), b.get(*j)) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    *i += 1;
                    Some(x)
                } else {
                    *j += 1;
                    Some(y)
                }
            }
            (Some(&x), None) => {
                *i += 1;
                Some(x)
            }
            (None, Some(&y)) => {
                *j += 1;
                Some(y)
            }
            (None, None) => None,
        };
        let mut total = 0u32;
        let Some(mut cur) = take(&mut i, &mut j) else {
            return Some(0);
        };
        loop {
            let next = take(&mut i, &mut j);
            total += self.cost(cur.0, cur.1, next);
            if total > cap {
                return None;
            }
            match next {
                Some(n) => cur = n,
                None => return Some(total),
            }
        }
    }

    /// One block's contribution given the block laid out after it (if any).
    fn cost(&self, f: FuncId, b: usize, next: Option<(FuncId, usize)>) -> u32 {
        let adjacent = |t: usize| next == Some((f, t));
        self.base[f.0][b]
            + match self.term[f.0][b] {
                TermCost::Fall(n) => u32::from(!adjacent(n)),
                TermCost::Cond(fall) => 1 + u32::from(!adjacent(fall)),
                TermCost::Fixed => 1,
            }
    }
}

/// Decides which blocks may be compressed at all: cold, in a function that
/// is neither excluded nor the entry, and compatible with the jump-table
/// mode (paper §5 plus the §6.2 exclusion rule).
pub fn compressible_blocks(
    program: &Program,
    cold: &ColdSet,
    options: &SquashOptions,
) -> Vec<Vec<bool>> {
    let mut out: Vec<Vec<bool>> = cold.cold.clone();
    for (fi, f) in program.funcs.iter().enumerate() {
        let fid = FuncId(fi);
        let name = &f.name;
        let func_excluded = fid == program.entry || options.exclude.contains(name);
        // A jump with unknown extent poisons its whole function: the jump's
        // possible targets cannot be enumerated.
        let has_unknown_jump = f
            .blocks
            .iter()
            .any(|b| matches!(b.term, Term::IndirectJump { table: None, .. }));
        if func_excluded || has_unknown_jump {
            out[fi].fill(false);
        }
        if options.jump_tables == JumpTableMode::Exclude {
            for (bi, block) in f.blocks.iter().enumerate() {
                if let Term::IndirectJump {
                    table: Some(di), ..
                } = &block.term
                {
                    out[fi][bi] = false;
                    for item in &program.data[*di].items {
                        if let DataItem::Addr(AddrTarget::Block(owner, t)) = item {
                            if *owner == fid {
                                out[fi][*t] = false;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Forms compressible regions with the configured strategy,
/// profitability-filtered, then packed. Computes [`RefInfo`] internally;
/// callers that already hold one (the squash pipeline computes it once and
/// shares it with layout) should use [`form_regions_with`].
pub fn form_regions(
    program: &Program,
    compressible: &[Vec<bool>],
    options: &SquashOptions,
) -> Vec<Region> {
    let refs = ref_info(program);
    form_regions_with(program, compressible, &refs, options)
}

/// [`form_regions`] with a caller-provided [`RefInfo`], so region formation
/// and layout share one cross-reference computation and always agree on
/// stub counts.
pub fn form_regions_with(
    program: &Program,
    compressible: &[Vec<bool>],
    refs: &RefInfo,
    options: &SquashOptions,
) -> Vec<Region> {
    let sizing = SizingTable::build(program);
    let k_words = (options.buffer_limit / 4).max(2);
    let mut regions = match options.region_strategy {
        RegionStrategy::DfsTree => {
            dfs_regions(program, compressible, refs, &sizing, k_words, options)
        }
        RegionStrategy::LayoutGreedy => {
            greedy_regions(program, compressible, refs, &sizing, k_words, options)
        }
    };
    if options.pack_regions {
        pack(&sizing, refs, &mut regions, k_words);
    }
    regions
}

/// The paper's K-bounded DFS-tree construction. Functions are independent,
/// so they fan out over `options.jobs` workers; per-function results are
/// concatenated in function order, matching the serial construction.
fn dfs_regions(
    program: &Program,
    compressible: &[Vec<bool>],
    refs: &RefInfo,
    sizing: &SizingTable,
    k_words: u32,
    options: &SquashOptions,
) -> Vec<Region> {
    crate::par::run_chunked(options.jobs, program.funcs.len(), |range| {
        let mut regions: Vec<Region> = Vec::new();
        for fi in range {
            dfs_regions_in(
                program, compressible, refs, sizing, k_words, options, fi, &mut regions,
            );
        }
        regions
    })
}

/// Grows the DFS-tree regions of a single function into `regions`.
#[allow(clippy::too_many_arguments)]
fn dfs_regions_in(
    program: &Program,
    compressible: &[Vec<bool>],
    refs: &RefInfo,
    sizing: &SizingTable,
    k_words: u32,
    options: &SquashOptions,
    fi: usize,
    regions: &mut Vec<Region>,
) {
    let f = &program.funcs[fi];
    let fid = FuncId(fi);
    let nblocks = f.blocks.len();
    let mut in_region = vec![false; nblocks];
    let mut failed_root = vec![false; nblocks];
    while let Some(root) =
        (0..nblocks).find(|&b| compressible[fi][b] && !in_region[b] && !failed_root[b])
    {
        // Grow a DFS tree from the root, bounded by K.
        let mut members: Vec<usize> = vec![root];
        let mut member_set: HashSet<usize> = members.iter().copied().collect();
        let mut stack = vec![root];
        while let Some(b) = stack.pop() {
            for s in f.successors(b, program, fid) {
                if !compressible[fi][s] || in_region[s] || member_set.contains(&s) {
                    continue;
                }
                let mut candidate: Vec<(FuncId, usize)> = members
                    .iter()
                    .map(|&m| (fid, m))
                    .chain(std::iter::once((fid, s)))
                    .collect();
                candidate.sort_unstable();
                if sizing.words_of(&candidate) <= k_words {
                    members.push(s);
                    member_set.insert(s);
                    stack.push(s);
                }
            }
        }
        let mut blocks: Vec<(FuncId, usize)> = members.iter().map(|&m| (fid, m)).collect();
        blocks.sort_unstable();
        let region = Region { blocks };
        if profitable(program, &region, refs, options) {
            for &(_, b) in &region.blocks {
                in_region[b] = true;
            }
            regions.push(region);
        } else {
            failed_root[root] = true;
        }
    }
}

/// The alternative construction: consecutive compressible blocks in layout
/// order, split at the K bound. Fans out over functions like
/// [`dfs_regions`].
fn greedy_regions(
    program: &Program,
    compressible: &[Vec<bool>],
    refs: &RefInfo,
    sizing: &SizingTable,
    k_words: u32,
    options: &SquashOptions,
) -> Vec<Region> {
    crate::par::run_chunked(options.jobs, program.funcs.len(), |range| {
        let mut regions: Vec<Region> = Vec::new();
        for fi in range {
            let fid = FuncId(fi);
            let mut current: Vec<(FuncId, usize)> = Vec::new();
            let flush = |current: &mut Vec<(FuncId, usize)>, regions: &mut Vec<Region>| {
                if current.is_empty() {
                    return;
                }
                let region = Region {
                    blocks: std::mem::take(current),
                };
                if profitable(program, &region, refs, options) {
                    regions.push(region);
                }
            };
            for (bi, &block_ok) in compressible[fi].iter().enumerate() {
                if !block_ok {
                    flush(&mut current, &mut regions);
                    continue;
                }
                let mut candidate = current.clone();
                candidate.push((fid, bi));
                if sizing.words_of(&candidate) > k_words {
                    flush(&mut current, &mut regions);
                    candidate = vec![(fid, bi)];
                    if sizing.words_of(&candidate) > k_words {
                        continue; // single block too large for the buffer
                    }
                }
                current = candidate;
            }
            flush(&mut current, &mut regions);
        }
        regions
    })
}

/// The paper's profitability test: entry-stub cost `E` must be less than
/// the expected savings `(1-γ)·I`.
fn profitable(
    program: &Program,
    region: &Region,
    refs: &RefInfo,
    options: &SquashOptions,
) -> bool {
    let e_words = 2.0 * entry_blocks(region, refs).len() as f64;
    let i_words = region
        .blocks
        .iter()
        .map(|&(f, b)| block_emitted_words(&program.func(f).blocks[b], b) as f64)
        .sum::<f64>();
    e_words < (1.0 - options.gamma) * i_words
}

/// Merges two sorted, disjoint member lists in O(|a| + |b|).
fn merge_sorted(a: &[(FuncId, usize)], b: &[(FuncId, usize)]) -> Vec<(FuncId, usize)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Greedy pairwise packing: repeatedly merge the pair with the highest
/// positive savings that still fits K (paper §4), ties going to the highest
/// `(lo, hi)` slot pair; the merged region takes slot `lo`.
///
/// A merge saves the words it removes (fall-throughs that become adjacent,
/// entry stubs that become internal) plus the region's word in the
/// function offset table. The first two are intra-function:
/// [`SizingTable::cost`] only credits a next block in the same function,
/// and `RefInfo::intra_preds` only lists same-function predecessors. Two
/// regions that share no function therefore save exactly 1 when
/// `a.words + b.words ≤ K`, and need no scoring. The lazy max-heap holds:
///
/// * every pair that shares a function, scored exactly;
/// * per region `lo`, one entry for its *best partner*: the highest-indexed
///   `hi > lo` that shares no function with it and fits.
///
/// Entries carry both regions' version stamps and are skipped on pop once
/// either region has changed. A region's best partner depends only on the
/// region and the ones above it: a merge into a region recomputes its best
/// partner, an entry whose partner changed or died is recomputed when it
/// pops, and after each merge into `i` every lower region whose best
/// partner sits below `i` is offered `i` (a merge can shrink `i` enough to
/// fit). Every alive pair thus stays under some heap entry, and merges
/// happen in exactly the all-pairs greedy order.
///
/// Candidate evaluation is O(|a| + |b|) in blocks: sizes come from the
/// [`SizingTable`], members from a two-pointer merge, and entry stubs from
/// re-testing only the union of the two regions' own entry lists — a block
/// whose predecessors all lie inside its old region still has them inside
/// the merged one, so `entries(a ∪ b) ⊆ entries(a) ∪ entries(b)`.
fn pack(sizing: &SizingTable, refs: &RefInfo, regions: &mut Vec<Region>, k_words: u32) {
    let n = regions.len();
    let mut by_func = vec![Vec::new(); refs.entry_referenced.len()];
    let mut alive = Vec::with_capacity(n);
    for (i, region) in regions.drain(..).enumerate() {
        let words = sizing.words_of(&region.blocks);
        let entries = entry_blocks(&region, refs);
        let entry = PackEntry::new(region, words, entries, 0);
        for &f in &entry.funcs {
            by_func[f].push(i);
        }
        alive.push(Some(entry));
    }
    let mut packer = Packer {
        sizing,
        refs,
        k_words,
        alive,
        by_func,
        best: vec![None; n],
        heap: BinaryHeap::new(),
        next_version: 1,
    };
    for i in 0..n {
        packer.push_shared(i, true);
        packer.refresh_best(i);
    }
    packer.run();
    regions.extend(packer.alive.into_iter().flatten().map(|e| e.region));
}

/// A region during packing, with what scoring reads cached.
struct PackEntry {
    region: Region,
    words: u32,
    /// Sorted entry-stub blocks; `len()` is the region's stub count.
    entries: Vec<(FuncId, usize)>,
    /// Sorted functions the region has blocks in.
    funcs: Vec<usize>,
    version: u64,
}

impl PackEntry {
    fn new(region: Region, words: u32, entries: Vec<(FuncId, usize)>, version: u64) -> Self {
        // Blocks are sorted by function, so `dedup` leaves each once.
        let mut funcs: Vec<usize> = region.blocks.iter().map(|&(f, _)| f.0).collect();
        funcs.dedup();
        PackEntry {
            region,
            words,
            entries,
            funcs,
            version,
        }
    }
}

/// A packing heap entry. Fields compare in declaration order, so the heap
/// pops by `(savings, lo, hi)`; the versions only tell stale entries apart.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    savings: i64,
    lo: usize,
    hi: usize,
    versions: (u64, u64),
    /// `lo`'s best-partner entry, rather than an exactly scored pair that
    /// shares a function.
    best: bool,
}

/// The state of one [`pack`] run.
struct Packer<'a> {
    sizing: &'a SizingTable,
    refs: &'a RefInfo,
    k_words: u32,
    alive: Vec<Option<PackEntry>>,
    /// `by_func[f]`: the alive regions with a block in function `f`.
    by_func: Vec<Vec<usize>>,
    /// `best[lo]`: the partner in `lo`'s latest best-partner entry.
    best: Vec<Option<usize>>,
    heap: BinaryHeap<Candidate>,
    next_version: u64,
}

impl Packer<'_> {
    fn entry(&self, i: usize) -> &PackEntry {
        self.alive[i].as_ref().expect("region is alive")
    }

    /// The savings of merging `a` and `b`, without materializing the union:
    /// its size from the fused two-pointer walk, and its surviving entry
    /// stubs counted with membership tested against the two source lists
    /// (the union contains a block iff one of them does).
    fn score(&self, a: &PackEntry, b: &PackEntry) -> Option<i64> {
        let (sizing, refs) = (self.sizing, self.refs);
        // Union size. When one region's blocks all sort before the other's,
        // the union is a concatenation and only the seam block's successor
        // changes, so the size comes from the parts in O(1); otherwise walk
        // the merge.
        let concat_words = |x: &PackEntry, y: &PackEntry| {
            let &last = x.region.blocks.last().expect("regions are non-empty");
            let &first = y.region.blocks.first().expect("regions are non-empty");
            x.words + y.words + sizing.cost(last.0, last.1, Some(first))
                - sizing.cost(last.0, last.1, None)
        };
        let (ab, bb) = (&a.region.blocks, &b.region.blocks);
        let words = if ab.last() < bb.first() {
            Some(concat_words(a, b)).filter(|&w| w <= self.k_words)
        } else if bb.last() < ab.first() {
            Some(concat_words(b, a)).filter(|&w| w <= self.k_words)
        } else {
            sizing.words_of_union(ab, bb, self.k_words)
        }?;
        let in_union = |f: FuncId, p: usize| {
            ab.binary_search(&(f, p)).is_ok() || bb.binary_search(&(f, p)).is_ok()
        };
        let mut entries = 0i64;
        for &(f, bi) in a.entries.iter().chain(&b.entries) {
            let externally_entered = (bi == 0 && refs.entry_referenced[f.0])
                || refs.data_referenced[f.0][bi]
                || refs.intra_preds[f.0][bi].iter().any(|&p| !in_union(f, p));
            entries += i64::from(externally_entered);
        }
        let savings = (a.words as i64 + b.words as i64 - words as i64)
            + 2 * (a.entries.len() as i64 + b.entries.len() as i64 - entries)
            + 1;
        (savings > 0).then_some(savings)
    }

    /// The materializing twin of [`Packer::score`], for the one winning pair
    /// per merge step: the union, stamped with the next version.
    fn merged(&self, a: &PackEntry, b: &PackEntry) -> Option<PackEntry> {
        let refs = self.refs;
        let blocks = merge_sorted(&a.region.blocks, &b.region.blocks);
        let words = self.sizing.words_of(&blocks);
        if words > self.k_words {
            return None;
        }
        let mut entries = Vec::new();
        for &(f, bi) in &merge_sorted(&a.entries, &b.entries) {
            let externally_entered = (bi == 0 && refs.entry_referenced[f.0])
                || refs.data_referenced[f.0][bi]
                || refs.intra_preds[f.0][bi]
                    .iter()
                    .any(|&p| blocks.binary_search(&(f, p)).is_err());
            if externally_entered {
                entries.push((f, bi));
            }
        }
        let savings = (a.words as i64 + b.words as i64 - words as i64)
            + 2 * (a.entries.len() as i64 + b.entries.len() as i64 - entries.len() as i64)
            + 1;
        (savings > 0).then(|| PackEntry::new(Region { blocks }, words, entries, self.next_version))
    }

    /// Pushes the scored pairs of `i` with every region sharing one of its
    /// functions (only those above `i` when `above_only`).
    fn push_shared(&mut self, i: usize, above_only: bool) {
        let a = self.entry(i);
        let mut partners: Vec<usize> = a
            .funcs
            .iter()
            .flat_map(|&f| self.by_func[f].iter().copied())
            .filter(|&k| k != i && (!above_only || k > i))
            .collect();
        partners.sort_unstable();
        partners.dedup();
        let mut found = Vec::new();
        for k in partners {
            let b = self.entry(k);
            // A cheap heuristic cutoff, not a bound: interleaved regions of
            // one function can save more than 16 fall-through words. It
            // stays because dropping it would change which pairs merge, and
            // so the images.
            if a.words + b.words > self.k_words + 16 {
                continue;
            }
            if let Some(savings) = self.score(a, b) {
                found.push(Candidate {
                    savings,
                    lo: i.min(k),
                    hi: i.max(k),
                    versions: if i < k {
                        (a.version, b.version)
                    } else {
                        (b.version, a.version)
                    },
                    best: false,
                });
            }
        }
        self.heap.extend(found);
    }

    /// Whether `hi` is a best-partner candidate for `lo`: it shares no
    /// function with `lo`, so the pair saves exactly 1, and the two fit.
    fn fits_apart(&self, lo: &PackEntry, hi: &PackEntry) -> bool {
        lo.words + hi.words <= self.k_words
            && !lo.funcs.iter().any(|f| hi.funcs.binary_search(f).is_ok())
    }

    /// Recomputes `lo`'s best partner and pushes its entry.
    fn refresh_best(&mut self, lo: usize) {
        let a = self.entry(lo);
        let best = (lo + 1..self.alive.len()).rev().find(|&hi| {
            self.alive[hi]
                .as_ref()
                .is_some_and(|b| self.fits_apart(a, b))
        });
        self.best[lo] = best;
        if let Some(hi) = best {
            self.push_best(lo, hi);
        }
    }

    fn push_best(&mut self, lo: usize, hi: usize) {
        let versions = (self.entry(lo).version, self.entry(hi).version);
        self.heap.push(Candidate {
            savings: 1,
            lo,
            hi,
            versions,
            best: true,
        });
    }

    /// Offers the just-merged region `i` to every lower region whose best
    /// partner sits below it.
    fn offer(&mut self, i: usize) {
        let b = self.entry(i);
        let takers: Vec<usize> = (0..i)
            .filter(|&lo| {
                self.best[lo].is_none_or(|h| h < i)
                    && self.alive[lo]
                        .as_ref()
                        .is_some_and(|a| self.fits_apart(a, b))
            })
            .collect();
        for lo in takers {
            self.best[lo] = Some(i);
            self.push_best(lo, i);
        }
    }

    fn run(&mut self) {
        while let Some(c) = self.heap.pop() {
            let version = |slot: usize| self.alive[slot].as_ref().map(|e| e.version);
            if (version(c.lo), version(c.hi)) != (Some(c.versions.0), Some(c.versions.1)) {
                // A merge into `lo` pushed its fresh entries itself; only a
                // best partner that changed or died leaves `lo` to refresh.
                if c.best && version(c.lo) == Some(c.versions.0) && self.best[c.lo] == Some(c.hi) {
                    self.refresh_best(c.lo);
                }
                continue;
            }
            let (i, j) = (c.lo, c.hi);
            let Some(merged) = self.merged(self.entry(i), self.entry(j)) else {
                continue;
            };
            self.next_version += 1;
            let gone = self.alive[j].take().expect("region is alive");
            for &f in &gone.funcs {
                let list = &mut self.by_func[f];
                list.retain(|&r| r != j);
                if !list.contains(&i) {
                    list.push(i);
                }
            }
            self.alive[i] = Some(merged);
            self.push_shared(i, false);
            self.refresh_best(i);
            self.offer(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline;
    use crate::BlockProfile;

    fn fixture() -> (Program, BlockProfile) {
        let program = minicc::build_program(&[r#"
            int cold1(int x) { return x * 3 + (x / 5) - (x % 7); }
            int cold2(int x) {
                int i;
                int s = 0;
                for (i = 0; i < x; i = i + 1) s = s + cold1(i);
                return s;
            }
            int main() {
                int c = getb();
                int i;
                int s = 0;
                for (i = 0; i < 50; i = i + 1) s = s + i;
                if (c == 'X') s = cold2(s);
                return s % 100;
            }
        "#])
        .unwrap();
        let profile = pipeline::profile(&program, &[b"a".to_vec()]).unwrap();
        (program, profile)
    }

    fn options() -> SquashOptions {
        SquashOptions {
            theta: 0.0,
            ..SquashOptions::default()
        }
    }

    #[test]
    fn regions_cover_only_compressible_blocks() {
        let (program, profile) = fixture();
        let opts = options();
        let cold = crate::cold::identify(&program, &profile, opts.theta).unwrap();
        let comp = compressible_blocks(&program, &cold, &opts);
        let regions = form_regions(&program, &comp, &opts);
        assert!(!regions.is_empty(), "cold functions should form regions");
        for r in &regions {
            for &(f, b) in &r.blocks {
                assert!(comp[f.0][b], "non-compressible block {f:?}:{b} in region");
            }
        }
    }

    #[test]
    fn regions_are_disjoint() {
        let (program, profile) = fixture();
        let opts = options();
        let cold = crate::cold::identify(&program, &profile, opts.theta).unwrap();
        let comp = compressible_blocks(&program, &cold, &opts);
        let regions = form_regions(&program, &comp, &opts);
        let mut seen = HashSet::new();
        for r in &regions {
            for &m in &r.blocks {
                assert!(seen.insert(m), "block {m:?} in two regions");
            }
        }
    }

    #[test]
    fn regions_respect_buffer_limit() {
        let (program, profile) = fixture();
        for k in [64u32, 128, 256, 512, 1024] {
            let opts = SquashOptions {
                theta: 1.0,
                buffer_limit: k,
                ..SquashOptions::default()
            };
            let cold = crate::cold::identify(&program, &profile, opts.theta).unwrap();
            let comp = compressible_blocks(&program, &cold, &opts);
            let regions = form_regions(&program, &comp, &opts);
            for r in &regions {
                let words = estimate_image_words(&program, &r.blocks);
                assert!(
                    words * 4 <= k,
                    "region of {words} words exceeds K={k} bytes"
                );
            }
        }
    }

    #[test]
    fn entry_function_is_never_compressed() {
        let (program, profile) = fixture();
        let opts = SquashOptions {
            theta: 1.0,
            ..SquashOptions::default()
        };
        let cold = crate::cold::identify(&program, &profile, opts.theta).unwrap();
        let comp = compressible_blocks(&program, &cold, &opts);
        assert!(comp[program.entry.0].iter().all(|&c| !c));
    }

    #[test]
    fn excluded_functions_are_respected() {
        let (program, profile) = fixture();
        let mut opts = SquashOptions {
            theta: 1.0,
            ..SquashOptions::default()
        };
        opts.exclude.insert("cold1".into());
        let cold = crate::cold::identify(&program, &profile, opts.theta).unwrap();
        let comp = compressible_blocks(&program, &cold, &opts);
        let f = program.func_by_name("cold1").unwrap();
        assert!(comp[f.0].iter().all(|&c| !c));
    }

    #[test]
    fn packing_reduces_region_count_without_exceeding_k() {
        let (program, profile) = fixture();
        let opts = SquashOptions {
            theta: 1.0,
            pack_regions: false,
            ..SquashOptions::default()
        };
        let cold = crate::cold::identify(&program, &profile, opts.theta).unwrap();
        let comp = compressible_blocks(&program, &cold, &opts);
        let unpacked = form_regions(&program, &comp, &opts);
        let packed_opts = SquashOptions {
            pack_regions: true,
            ..opts
        };
        let packed = form_regions(&program, &comp, &packed_opts);
        assert!(packed.len() <= unpacked.len());
        for r in &packed {
            assert!(estimate_image_words(&program, &r.blocks) * 4 <= 512);
        }
    }

    #[test]
    fn sizing_table_matches_estimate_image_words() {
        let (program, profile) = fixture();
        let opts = options();
        let sizing = SizingTable::build(&program);
        let cold = crate::cold::identify(&program, &profile, opts.theta).unwrap();
        let comp = compressible_blocks(&program, &cold, &opts);
        let regions = form_regions(&program, &comp, &opts);
        assert!(!regions.is_empty());
        for r in &regions {
            assert_eq!(
                sizing.words_of(&r.blocks),
                estimate_image_words(&program, &r.blocks)
            );
            // Prefixes exercise the terminator-adjacency edge cases.
            for len in 1..r.blocks.len() {
                assert_eq!(
                    sizing.words_of(&r.blocks[..len]),
                    estimate_image_words(&program, &r.blocks[..len])
                );
            }
        }
        // Pairwise unions, as pack() evaluates them: the fused two-pointer
        // walk, the concat fast path (when the regions don't interleave),
        // and the capped early exit must all agree with the full estimate.
        for a in &regions {
            for b in &regions {
                if a == b {
                    continue;
                }
                let merged = merge_sorted(&a.blocks, &b.blocks);
                let full = estimate_image_words(&program, &merged);
                assert_eq!(sizing.words_of(&merged), full);
                assert_eq!(sizing.words_of_union(&a.blocks, &b.blocks, u32::MAX), Some(full));
                if full > 0 {
                    assert_eq!(sizing.words_of_union(&a.blocks, &b.blocks, full - 1), None);
                }
                if a.blocks.last() < b.blocks.first() {
                    let &last = a.blocks.last().unwrap();
                    let &first = b.blocks.first().unwrap();
                    let concat = sizing.words_of(&a.blocks) + sizing.words_of(&b.blocks)
                        + sizing.cost(last.0, last.1, Some(first))
                        - sizing.cost(last.0, last.1, None);
                    assert_eq!(concat, full, "concat fast path diverged from full walk");
                }
            }
        }
    }

    #[test]
    fn pack_entry_narrowing_matches_full_entry_scan() {
        let (program, profile) = fixture();
        let opts = options();
        let refs = ref_info(&program);
        let cold = crate::cold::identify(&program, &profile, opts.theta).unwrap();
        let comp = compressible_blocks(&program, &cold, &opts);
        let regions = form_regions(
            &program,
            &comp,
            &SquashOptions {
                pack_regions: false,
                ..opts
            },
        );
        for a in &regions {
            for b in &regions {
                if a == b {
                    continue;
                }
                let merged = Region {
                    blocks: merge_sorted(&a.blocks, &b.blocks),
                };
                let full = entry_blocks(&merged, &refs);
                // The narrowed candidate set used by pack(): re-test only
                // the union of the parts' entry lists.
                let candidates =
                    merge_sorted(&entry_blocks(a, &refs), &entry_blocks(b, &refs));
                let narrowed: Vec<(FuncId, usize)> = candidates
                    .iter()
                    .copied()
                    .filter(|&(f, bi)| {
                        (bi == 0 && refs.entry_referenced[f.0])
                            || refs.data_referenced[f.0][bi]
                            || refs.intra_preds[f.0][bi]
                                .iter()
                                .any(|&p| merged.blocks.binary_search(&(f, p)).is_err())
                    })
                    .collect();
                assert_eq!(narrowed, full);
            }
        }
    }

    #[test]
    fn form_regions_is_independent_of_jobs() {
        let (program, profile) = fixture();
        let opts = options();
        let cold = crate::cold::identify(&program, &profile, opts.theta).unwrap();
        let comp = compressible_blocks(&program, &cold, &opts);
        let serial = form_regions(&program, &comp, &opts);
        for jobs in [2, 3, 8] {
            let parallel = form_regions(
                &program,
                &comp,
                &SquashOptions {
                    jobs,
                    ..opts.clone()
                },
            );
            assert_eq!(serial, parallel, "jobs={jobs} changed region formation");
        }
    }

    /// The packing greedy stated directly: at each step, score every alive
    /// pair `lo < hi` that passes the `+16` cutoff by materializing its
    /// union, and merge the pair with the largest `(savings, lo, hi)` among
    /// those that save anything. A score depends only on its two regions,
    /// so it is kept until one of them changes.
    fn pack_reference(
        program: &Program,
        refs: &RefInfo,
        regions: Vec<Region>,
        k_words: u32,
    ) -> Vec<Region> {
        let k = i64::from(k_words);
        let words = |r: &Region| i64::from(estimate_image_words(program, &r.blocks));
        let stubs = |r: &Region| entry_blocks(r, refs).len() as i64;
        let score = |a: &Region, b: &Region| -> Option<(i64, Region)> {
            if words(a) + words(b) > k + 16 {
                return None;
            }
            let union = Region {
                blocks: merge_sorted(&a.blocks, &b.blocks),
            };
            if words(&union) > k {
                return None;
            }
            let savings =
                words(a) + words(b) - words(&union) + 2 * (stubs(a) + stubs(b) - stubs(&union)) + 1;
            (savings > 0).then_some((savings, union))
        };
        let n = regions.len();
        let mut slots: Vec<Option<Region>> = regions.into_iter().map(Some).collect();
        let mut scores = vec![vec![None; n]; n];
        loop {
            let mut best: Option<(i64, usize, usize)> = None;
            for lo in 0..n {
                for hi in lo + 1..n {
                    let (Some(a), Some(b)) = (&slots[lo], &slots[hi]) else {
                        continue;
                    };
                    if let Some((s, _)) = scores[lo][hi].get_or_insert_with(|| score(a, b)) {
                        if best.is_none_or(|top| (*s, lo, hi) > top) {
                            best = Some((*s, lo, hi));
                        }
                    }
                }
            }
            let Some((_, lo, hi)) = best else { break };
            let (_, union) = scores[lo][hi].take().flatten().expect("scored above");
            slots[lo] = Some(union);
            slots[hi] = None;
            for other in 0..n {
                scores[lo.min(other)][lo.max(other)] = None;
            }
        }
        slots.into_iter().flatten().collect()
    }

    #[test]
    fn pack_matches_the_all_pairs_greedy() {
        let mut cases = vec![("fixture", fixture())];
        // A paper program and a jump-table-heavy corpus program.
        for name in ["adpcm", "g087h80j15d1v3"] {
            let w = squash_workloads::by_name(name).expect("workload exists");
            let (program, _) = w.squeezed();
            let profile = pipeline::profile(&program, &[w.profiling_input()]).unwrap();
            cases.push((name, (program, profile)));
        }
        for (name, (program, profile)) in &cases {
            let refs = ref_info(program);
            for theta in [0.0, 1e-3, 1.0] {
                for buffer_limit in [256, 512] {
                    let opts = SquashOptions {
                        theta,
                        buffer_limit,
                        pack_regions: false,
                        ..SquashOptions::default()
                    };
                    let cold = crate::cold::identify(program, profile, theta).unwrap();
                    let comp = compressible_blocks(program, &cold, &opts);
                    let unpacked = form_regions_with(program, &comp, &refs, &opts);
                    let packed = form_regions_with(
                        program,
                        &comp,
                        &refs,
                        &SquashOptions {
                            pack_regions: true,
                            ..opts
                        },
                    );
                    let expected = pack_reference(program, &refs, unpacked, buffer_limit / 4);
                    assert_eq!(packed, expected, "{name} θ={theta} K={buffer_limit}");
                }
            }
        }
    }

    /// A merge can shrink a region, when empty blocks make fall-throughs
    /// adjacent. A lower region that fit with nothing before may then fit
    /// with the merged one, and only the offer after the merge finds it.
    #[test]
    fn pack_offers_a_shrunken_region_to_lower_slots() {
        use squash_cfg::{Block, Function, PInst};
        let block = |insts: usize, term: Term| Block {
            labels: Vec::new(),
            insts: vec![PInst::plain(squash_isa::Inst::NOP); insts],
            term,
        };
        let program = Program {
            funcs: vec![
                Function {
                    name: "main".into(),
                    blocks: vec![block(0, Term::Exit)],
                },
                // Five empty blocks falling through into an exit.
                Function {
                    name: "chain".into(),
                    blocks: (0..5)
                        .map(|b| block(0, Term::Fall { next: b + 1 }))
                        .chain([block(0, Term::Exit)])
                        .collect(),
                },
                Function {
                    name: "big".into(),
                    blocks: vec![block(6, Term::Exit)],
                },
            ],
            data: Vec::new(),
            entry: FuncId(0),
        };
        let (chain, big) = (FuncId(1), FuncId(2));
        let regions = vec![
            Region {
                blocks: vec![(big, 0)],
            },
            Region {
                blocks: vec![(chain, 0), (chain, 2), (chain, 4)],
            },
            Region {
                blocks: vec![(chain, 1), (chain, 3)],
            },
        ];
        let sizing = SizingTable::build(&program);
        let words: Vec<u32> = regions.iter().map(|r| sizing.words_of(&r.blocks)).collect();
        assert_eq!(words, [7, 3, 2]);
        let refs = ref_info(&program);
        let mut packed = regions.clone();
        pack(&sizing, &refs, &mut packed, 8);
        let all = vec![
            (chain, 0),
            (chain, 1),
            (chain, 2),
            (chain, 3),
            (chain, 4),
            (big, 0),
        ];
        assert_eq!(packed, [Region { blocks: all }]);
        assert_eq!(packed, pack_reference(&program, &refs, regions, 8));
    }

    #[test]
    fn entry_blocks_detect_external_edges() {
        let (program, _) = fixture();
        let refs = ref_info(&program);
        let f = program.func_by_name("cold2").unwrap();
        // A region holding all of cold2: only the entry block (called from
        // main) plus any data-referenced blocks need stubs.
        let all: Vec<(FuncId, usize)> = (0..program.func(f).blocks.len())
            .map(|b| (f, b))
            .collect();
        let region = Region { blocks: all };
        let entries = entry_blocks(&region, &refs);
        assert!(entries.contains(&(f, 0)), "function entry must be an entry block");
        // A region missing the loop header: the header's in-loop successors
        // gain external predecessors.
        let partial = Region {
            blocks: region.blocks[1..].to_vec(),
        };
        let partial_entries = entry_blocks(&partial, &refs);
        assert!(!partial_entries.is_empty());
    }
}
