//! An R-tree with STR (Sort-Tile-Recursive) bulk loading, quadratic-split
//! insertion, removal and a best-first nearest-neighbour walk.
//!
//! This mirrors how the paper uses GEOS's `STRtree`: bulk-build an index
//! over one geometry collection (or the grid-cell boundaries), then query it
//! with candidate MBRs during the filter phase. The resident query engine
//! additionally keeps one tree up to date across streaming updates
//! ([`RTree::insert`], [`RTree::remove`]) and answers kNN queries with
//! [`RTree::best_first`].

use crate::rect::Rect;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Maximum entries per node before a split.
const MAX_ENTRIES: usize = 16;
/// Minimum entries assigned to each side of a split.
const MIN_ENTRIES: usize = 4;

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf { mbr: Rect, entries: Vec<(Rect, T)> },
    Inner { mbr: Rect, children: Vec<Node<T>> },
}

impl<T> Node<T> {
    fn leaf(entries: Vec<(Rect, T)>) -> Self {
        let mut node = Node::Leaf {
            mbr: Rect::EMPTY,
            entries,
        };
        node.recompute_mbr();
        node
    }

    fn inner(children: Vec<Node<T>>) -> Self {
        let mut node = Node::Inner {
            mbr: Rect::EMPTY,
            children,
        };
        node.recompute_mbr();
        node
    }

    fn mbr(&self) -> Rect {
        match self {
            Node::Leaf { mbr, .. } | Node::Inner { mbr, .. } => *mbr,
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Node::Leaf { entries, .. } => entries.is_empty(),
            Node::Inner { children, .. } => children.is_empty(),
        }
    }

    fn recompute_mbr(&mut self) {
        match self {
            Node::Leaf { mbr, entries } => {
                *mbr = entries.iter().fold(Rect::EMPTY, |a, (r, _)| a.union(r));
            }
            Node::Inner { mbr, children } => {
                *mbr = children.iter().fold(Rect::EMPTY, |a, c| a.union(&c.mbr()));
            }
        }
    }
}

/// An R-tree over `(Rect, T)` entries.
///
/// * [`RTree::bulk_load`] builds a packed tree with the STR algorithm —
///   O(n log n), near-minimal overlap, the right choice for the read-mostly
///   workloads in this repository.
/// * [`RTree::insert`] supports incremental updates with quadratic split;
///   [`RTree::remove`] deletes one entry by its exact rectangle.
/// * [`RTree::query`] returns every entry whose MBR intersects the probe.
/// * [`RTree::best_first`] visits entries in order of a caller-supplied
///   lower bound, for nearest-neighbour search.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    root: Option<Node<T>>,
    len: usize,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        RTree::new()
    }
}

impl<T> RTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RTree { root: None, len: 0 }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// MBR of the whole tree ([`Rect::EMPTY`] when empty).
    pub fn mbr(&self) -> Rect {
        self.root.as_ref().map_or(Rect::EMPTY, Node::mbr)
    }

    /// Builds a tree from `(Rect, T)` pairs using Sort-Tile-Recursive
    /// packing.
    pub fn bulk_load(items: Vec<(Rect, T)>) -> Self {
        let len = items.len();
        if items.is_empty() {
            return RTree::new();
        }
        // STR: sort by center-x, tile into vertical slices of ~sqrt(n/M)
        // columns, sort each slice by center-y, pack runs of MAX_ENTRIES.
        let leaf_count = len.div_ceil(MAX_ENTRIES);
        let slice_count = (leaf_count as f64).sqrt().ceil() as usize;
        let per_slice = len.div_ceil(slice_count.max(1));

        // Each center is computed once and ordered with `total_cmp`:
        // `Rect::EMPTY` has a NaN center, which a `partial_cmp` sort
        // cannot order consistently.
        let mut keyed: Vec<(f64, f64, (Rect, T))> = items
            .into_iter()
            .map(|it| {
                let c = it.0.center();
                (c.x, c.y, it)
            })
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        for slice in keyed.chunks_mut(per_slice) {
            slice.sort_by(|a, b| a.1.total_cmp(&b.1));
        }

        let mut leaves: Vec<Node<T>> = Vec::with_capacity(leaf_count);
        for slice in runs(keyed.into_iter().map(|(_, _, it)| it), per_slice) {
            leaves.extend(runs(slice, MAX_ENTRIES).map(Node::leaf));
        }

        // Pack upper levels until a single root remains.
        let mut level = leaves;
        while level.len() > 1 {
            level = runs(level, MAX_ENTRIES).map(Node::inner).collect();
        }

        RTree {
            root: level.pop(),
            len,
        }
    }

    /// Inserts one entry, splitting overflowing nodes quadratically.
    pub fn insert(&mut self, rect: Rect, value: T) {
        self.len += 1;
        match self.root.take() {
            None => self.root = Some(Node::leaf(vec![(rect, value)])),
            Some(mut root) => {
                self.root = Some(match insert_rec(&mut root, rect, value) {
                    Some(sibling) => Node::inner(vec![root, sibling]),
                    None => root,
                });
            }
        }
    }

    /// Removes and returns one entry stored under exactly `rect` for
    /// which `pred` holds (`None` when there is none).
    ///
    /// The walk descends only into nodes whose MBR covers `rect`. MBRs on
    /// the path are tightened and emptied nodes are dropped, so every
    /// leaf stays at the same depth; underfull nodes are kept as they are
    /// (no re-insertion).
    pub fn remove(&mut self, rect: &Rect, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        let value = remove_rec(self.root.as_mut()?, rect, &mut pred)?;
        self.len -= 1;
        // Shrink the root: drop it when empty, collapse single-child
        // inner nodes.
        loop {
            match self.root.take() {
                Some(Node::Inner { mut children, .. }) if children.len() == 1 => {
                    self.root = children.pop();
                }
                Some(root) if root.is_empty() => break,
                root => {
                    self.root = root;
                    break;
                }
            }
        }
        Some(value)
    }

    /// The value of one entry stored under exactly `rect` for which
    /// `pred` holds, for in-place relabelling (`None` when there is none).
    pub fn find_mut(&mut self, rect: &Rect, mut pred: impl FnMut(&T) -> bool) -> Option<&mut T> {
        find_mut_rec(self.root.as_mut()?, rect, &mut pred)
    }

    /// Returns references to every entry whose MBR intersects `probe`, in
    /// deterministic tree order.
    pub fn query(&self, probe: &Rect) -> Vec<&T> {
        let mut out = Vec::new();
        self.query_with(probe, &mut |v| out.push(v));
        out
    }

    /// Visitor-style query: calls `visit` for each hit without allocating.
    pub fn query_with<'a>(&'a self, probe: &Rect, visit: &mut impl FnMut(&'a T)) {
        if let Some(root) = &self.root {
            query_rec(root, probe, visit);
        }
    }

    /// Counts entries intersecting `probe` without materializing them.
    pub fn count(&self, probe: &Rect) -> usize {
        let mut n = 0;
        self.query_with(probe, &mut |_| n += 1);
        n
    }

    /// Best-first walk ("distance browsing", Hjaltason & Samet): the
    /// building block of nearest-neighbour search.
    ///
    /// `bound` maps an MBR to a lower bound on the distance of anything
    /// inside it; it is called once for every node and entry MBR the walk
    /// tests. Pending nodes and entries wait in one priority queue ordered
    /// by bound ([`f64::total_cmp`]). Entries reach `visit` in
    /// nondecreasing bound order, and `visit` returns the current prune
    /// radius (typically the k-th best exact distance so far, or `+∞`
    /// while fewer than k are known). The walk stops once the smallest
    /// pending bound is *strictly greater* than that radius, so items
    /// whose bound ties the radius are still visited (a NaN bound is
    /// pruned).
    pub fn best_first<'a>(
        &'a self,
        mut bound: impl FnMut(&Rect) -> f64,
        mut visit: impl FnMut(&'a T) -> f64,
    ) {
        let Some(root) = &self.root else {
            return;
        };
        let mut radius = f64::INFINITY;
        let mut heap = BinaryHeap::new();
        heap.push(Pending {
            bound: bound(&root.mbr()),
            item: Item::Node(root),
        });
        while let Some(Pending { bound: b, item }) = heap.pop() {
            if pruned(b, radius) {
                break;
            }
            let mut push = |b: f64, item| {
                if !pruned(b, radius) {
                    heap.push(Pending { bound: b, item });
                }
            };
            match item {
                Item::Node(Node::Leaf { entries, .. }) => {
                    for (r, v) in entries {
                        push(bound(r), Item::Entry(v));
                    }
                }
                Item::Node(Node::Inner { children, .. }) => {
                    for c in children {
                        push(bound(&c.mbr()), Item::Node(c));
                    }
                }
                Item::Entry(v) => radius = visit(v),
            }
        }
    }

    /// Depth of the tree (0 when empty); exposed for tests and diagnostics.
    pub fn depth(&self) -> usize {
        fn d<T>(n: &Node<T>) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Inner { children, .. } => 1 + children.iter().map(d).max().unwrap_or(0),
            }
        }
        self.root.as_ref().map_or(0, d)
    }
}

/// Consecutive runs of at most `n` items, in order.
fn runs<I: IntoIterator>(items: I, n: usize) -> impl Iterator<Item = Vec<I::Item>> {
    let mut items = items.into_iter().peekable();
    std::iter::from_fn(move || {
        items.peek()?;
        Some(items.by_ref().take(n).collect())
    })
}

/// Whether [`RTree::best_first`] skips an item with bound `b`.
fn pruned(b: f64, radius: f64) -> bool {
    b > radius || b.is_nan()
}

/// A node or entry waiting in the [`RTree::best_first`] queue.
enum Item<'a, T> {
    Node(&'a Node<T>),
    Entry(&'a T),
}

/// Queue slot ordered so that [`BinaryHeap`] (a max-heap) pops the
/// smallest bound first.
struct Pending<'a, T> {
    bound: f64,
    item: Item<'a, T>,
}

impl<T> PartialEq for Pending<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Pending<'_, T> {}

impl<T> PartialOrd for Pending<'_, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Pending<'_, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.bound.total_cmp(&self.bound)
    }
}

/// Whether a node with MBR `mbr` can hold an entry stored under `rect`.
/// Empty rects add nothing to their ancestors' MBRs, so any node may
/// hold one.
fn may_hold(mbr: &Rect, rect: &Rect) -> bool {
    rect.is_empty() || mbr.contains(rect)
}

fn remove_rec<T>(node: &mut Node<T>, rect: &Rect, pred: &mut impl FnMut(&T) -> bool) -> Option<T> {
    let value = match node {
        Node::Leaf { entries, .. } => {
            let at = entries.iter().position(|(r, v)| r == rect && pred(v))?;
            entries.remove(at).1
        }
        Node::Inner { children, .. } => {
            let (at, value) = children.iter_mut().enumerate().find_map(|(i, c)| {
                if !may_hold(&c.mbr(), rect) {
                    return None;
                }
                remove_rec(c, rect, pred).map(|v| (i, v))
            })?;
            if children[at].is_empty() {
                children.remove(at);
            }
            value
        }
    };
    node.recompute_mbr();
    Some(value)
}

fn find_mut_rec<'a, T>(
    node: &'a mut Node<T>,
    rect: &Rect,
    pred: &mut impl FnMut(&T) -> bool,
) -> Option<&'a mut T> {
    match node {
        Node::Leaf { entries, .. } => entries
            .iter_mut()
            .find(|(r, v)| r == rect && pred(v))
            .map(|(_, v)| v),
        Node::Inner { children, .. } => children
            .iter_mut()
            .filter(|c| may_hold(&c.mbr(), rect))
            .find_map(|c| find_mut_rec(c, rect, pred)),
    }
}

fn query_rec<'a, T>(node: &'a Node<T>, probe: &Rect, visit: &mut impl FnMut(&'a T)) {
    match node {
        Node::Leaf { mbr, entries } => {
            if !mbr.intersects(probe) {
                return;
            }
            for (r, v) in entries {
                if r.intersects(probe) {
                    visit(v);
                }
            }
        }
        Node::Inner { mbr, children } => {
            if !mbr.intersects(probe) {
                return;
            }
            for c in children {
                query_rec(c, probe, visit);
            }
        }
    }
}

/// Recursive insert; returns a new sibling node if this node split.
fn insert_rec<T>(node: &mut Node<T>, rect: Rect, value: T) -> Option<Node<T>> {
    match node {
        Node::Leaf { mbr, entries } => {
            entries.push((rect, value));
            *mbr = mbr.union(&rect);
            if entries.len() > MAX_ENTRIES {
                let (a, b) = quadratic_split_entries(std::mem::take(entries));
                *node = Node::leaf(a);
                Some(Node::leaf(b))
            } else {
                None
            }
        }
        Node::Inner { mbr, children } => {
            *mbr = mbr.union(&rect);
            // Choose the child needing least enlargement (ties: smaller area).
            let idx = children
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let ea = a.mbr().union(&rect).area() - a.mbr().area();
                    let eb = b.mbr().union(&rect).area() - b.mbr().area();
                    ea.partial_cmp(&eb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| {
                            a.mbr()
                                .area()
                                .partial_cmp(&b.mbr().area())
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                })
                .map(|(i, _)| i)
                // audit: construction and removal never leave an empty inner node.
                .expect("inner node always has children");
            if let Some(sibling) = insert_rec(&mut children[idx], rect, value) {
                children.push(sibling);
                if children.len() > MAX_ENTRIES {
                    let (a, b) = quadratic_split_nodes(std::mem::take(children));
                    *node = Node::inner(a);
                    return Some(Node::inner(b));
                }
            }
            None
        }
    }
}

/// Guttman's quadratic split over leaf entries.
fn quadratic_split_entries<T>(items: Vec<(Rect, T)>) -> (Vec<(Rect, T)>, Vec<(Rect, T)>) {
    quadratic_split(items, |it| it.0)
}

/// Guttman's quadratic split over child nodes.
fn quadratic_split_nodes<T>(items: Vec<Node<T>>) -> (Vec<Node<T>>, Vec<Node<T>>) {
    quadratic_split(items, Node::mbr)
}

fn quadratic_split<I>(mut items: Vec<I>, rect_of: impl Fn(&I) -> Rect) -> (Vec<I>, Vec<I>) {
    debug_assert!(items.len() >= 2);
    // Pick the pair wasting the most area as seeds.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            let ra = rect_of(&items[i]);
            let rb = rect_of(&items[j]);
            let waste = ra.union(&rb).area() - ra.area() - rb.area();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    // Remove the higher index first so the lower stays valid.
    let item_b = items.remove(seed_b);
    let item_a = items.remove(seed_a);
    let mut group_a = vec![item_a];
    let mut group_b = vec![item_b];
    let mut mbr_a = rect_of(&group_a[0]);
    let mut mbr_b = rect_of(&group_b[0]);

    while let Some(item) = items.pop() {
        let remaining = items.len() + 1;
        // Force assignment if a group must take all remaining to reach MIN.
        if group_a.len() + remaining <= MIN_ENTRIES {
            mbr_a = mbr_a.union(&rect_of(&item));
            group_a.push(item);
            continue;
        }
        if group_b.len() + remaining <= MIN_ENTRIES {
            mbr_b = mbr_b.union(&rect_of(&item));
            group_b.push(item);
            continue;
        }
        let r = rect_of(&item);
        let grow_a = mbr_a.union(&r).area() - mbr_a.area();
        let grow_b = mbr_b.union(&r).area() - mbr_b.area();
        if grow_a <= grow_b {
            mbr_a = mbr_a.union(&r);
            group_a.push(item);
        } else {
            mbr_b = mbr_b.union(&r);
            group_b.push(item);
        }
    }
    (group_a, group_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_cells(n: usize) -> Vec<(Rect, usize)> {
        // n×n grid of unit cells, id = row * n + col.
        let mut cells = Vec::with_capacity(n * n);
        for row in 0..n {
            for col in 0..n {
                cells.push((
                    Rect::new(col as f64, row as f64, col as f64 + 1.0, row as f64 + 1.0),
                    row * n + col,
                ));
            }
        }
        cells
    }

    #[test]
    fn empty_tree_behaves() {
        let t: RTree<u32> = RTree::new();
        assert!(t.is_empty());
        assert_eq!(t.query(&Rect::new(0.0, 0.0, 1.0, 1.0)), Vec::<&u32>::new());
        assert!(t.mbr().is_empty());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn bulk_load_finds_exact_matches() {
        let t = RTree::bulk_load(unit_cells(10));
        assert_eq!(t.len(), 100);
        // Probe strictly inside cell (3, 4): ids are row*10+col.
        let hits = t.query(&Rect::new(4.25, 3.25, 4.75, 3.75));
        assert_eq!(hits, vec![&34]);
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let cells = unit_cells(13);
        let t = RTree::bulk_load(cells.clone());
        for probe in [
            Rect::new(0.0, 0.0, 13.0, 13.0),
            Rect::new(2.5, 2.5, 6.5, 4.5),
            Rect::new(-5.0, -5.0, -1.0, -1.0),
            Rect::new(12.5, 12.5, 20.0, 20.0),
            Rect::new(6.0, 6.0, 6.0, 6.0), // degenerate point probe
        ] {
            let mut expect: Vec<usize> = cells
                .iter()
                .filter(|(r, _)| r.intersects(&probe))
                .map(|&(_, id)| id)
                .collect();
            let mut got: Vec<usize> = t.query(&probe).into_iter().copied().collect();
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect, "probe {probe:?}");
        }
    }

    #[test]
    fn insert_matches_brute_force() {
        let cells = unit_cells(9);
        let mut t = RTree::new();
        for (r, id) in cells.clone() {
            t.insert(r, id);
        }
        assert_eq!(t.len(), 81);
        let probe = Rect::new(3.5, 3.5, 5.5, 5.5);
        let mut expect: Vec<usize> = cells
            .iter()
            .filter(|(r, _)| r.intersects(&probe))
            .map(|&(_, id)| id)
            .collect();
        let mut got: Vec<usize> = t.query(&probe).into_iter().copied().collect();
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn tree_depth_is_logarithmic() {
        let t = RTree::bulk_load(unit_cells(32)); // 1024 entries
                                                  // With M = 16: 1024 entries -> 64 leaves -> 4 inners -> 1 root = 3.
        assert!(t.depth() <= 4, "depth {} too large", t.depth());
    }

    #[test]
    fn count_matches_query_len() {
        let t = RTree::bulk_load(unit_cells(8));
        let probe = Rect::new(1.5, 1.5, 4.5, 2.5);
        assert_eq!(t.count(&probe), t.query(&probe).len());
    }

    #[test]
    fn mbr_covers_everything() {
        let t = RTree::bulk_load(unit_cells(5));
        assert_eq!(t.mbr(), Rect::new(0.0, 0.0, 5.0, 5.0));
    }

    #[test]
    fn single_item_tree() {
        let t = RTree::bulk_load(vec![(Rect::new(1.0, 1.0, 2.0, 2.0), "a")]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.query(&Rect::new(0.0, 0.0, 3.0, 3.0)), vec![&"a"]);
        assert!(t.query(&Rect::new(5.0, 5.0, 6.0, 6.0)).is_empty());
    }

    #[test]
    fn overlapping_entries_all_reported() {
        // 50 rectangles all covering the origin.
        let items: Vec<(Rect, usize)> = (0..50)
            .map(|i| (Rect::new(-1.0 - i as f64, -1.0, 1.0, 1.0), i))
            .collect();
        let t = RTree::bulk_load(items);
        assert_eq!(t.count(&Rect::new(0.0, 0.0, 0.0, 0.0)), 50);
    }

    /// 400 pseudo-random small rects; every 7th is empty.
    fn random_rects_with_empties(seed: u64) -> Vec<(Rect, usize)> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..400)
            .map(|i| {
                if i % 7 == 0 {
                    return (Rect::EMPTY, i);
                }
                let (x, y) = (rnd() * 100.0, rnd() * 100.0);
                (Rect::new(x, y, x + rnd(), y + rnd()), i)
            })
            .collect()
    }

    #[test]
    fn bulk_load_orders_empty_rects() {
        // Rect::EMPTY has a NaN center; sorting it with `partial_cmp`
        // made the sort panic ("does not correctly implement a total
        // order") on most of these inputs.
        for seed in 0..8 {
            let items = random_rects_with_empties(seed);
            let t = RTree::bulk_load(items.clone());
            assert_eq!(t.len(), 400);
            for probe in [
                Rect::new(0.0, 0.0, 200.0, 200.0),
                Rect::new(10.0, 10.0, 30.0, 20.0),
                Rect::new(50.5, 0.0, 50.5, 100.0),
            ] {
                let expect = items.iter().filter(|(r, _)| r.intersects(&probe)).count();
                assert_eq!(t.count(&probe), expect, "seed {seed}, probe {probe:?}");
            }
        }
    }

    #[test]
    fn remove_deletes_exactly_one_matching_entry() {
        let items = random_rects_with_empties(3);
        let mut t = RTree::bulk_load(items.clone());
        let (r, id) = items[45];
        assert_eq!(t.remove(&r, |&v| v == id + 1), None, "predicate must hold");
        assert_eq!(t.remove(&r, |&v| v == id), Some(id));
        assert_eq!(t.remove(&r, |&v| v == id), None);
        assert_eq!(t.len(), 399);
        assert_eq!(t.remove(&Rect::EMPTY, |&v| v == 7), Some(7));
        assert!(!t.query(&r).contains(&&id));
        // Draining the tree leaves it empty, not dangling.
        for (r, id) in items {
            if id != 45 && id != 7 {
                assert_eq!(t.remove(&r, |&v| v == id), Some(id));
            }
        }
        assert!(t.is_empty());
        assert_eq!(t.depth(), 0);
        assert!(t.mbr().is_empty());
        t.insert(Rect::new(0.0, 0.0, 1.0, 1.0), 1);
        assert_eq!(t.count(&Rect::new(0.5, 0.5, 0.5, 0.5)), 1);
    }

    #[test]
    fn find_mut_relabels_in_place() {
        let mut t = RTree::bulk_load(unit_cells(6));
        let cell = Rect::new(2.0, 3.0, 3.0, 4.0);
        *t.find_mut(&cell, |&v| v == 20).unwrap() = 99;
        assert!(t.find_mut(&cell, |&v| v == 20).is_none());
        assert_eq!(t.query(&Rect::new(2.5, 3.5, 2.5, 3.5)), vec![&99]);
    }

    #[test]
    fn best_first_visits_in_bound_order_and_stops_at_the_radius() {
        let t = RTree::bulk_load(unit_cells(20));
        // Distance from (0, 0) to each cell's lower-left corner.
        let bound = |r: &Rect| (r.min_x.max(0.0).powi(2) + r.min_y.max(0.0).powi(2)).sqrt();
        let mut seen = Vec::new();
        t.best_first(bound, |&id| {
            seen.push(id);
            if seen.len() < 3 {
                f64::INFINITY
            } else {
                1.0
            }
        });
        // Cells (0,0), (1,0) and (0,1) have bound <= 1; the cell at
        // (1,1) (bound sqrt 2) is pruned.
        let mut got = seen.clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 20]);
        assert_eq!(seen[0], 0);
    }
}
