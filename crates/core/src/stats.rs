//! Statistics and instrumentation types.

/// A snapshot of a [`crate::FitingTree`]'s shape and footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitingTreeStats {
    /// Key/value pairs stored.
    pub len: usize,
    /// Live segments (variable-sized pages).
    pub segment_count: usize,
    /// Bytes of the flat segment directory (the anchor array) —
    /// since the mutation-side B+ tree was retired, the *only*
    /// directory structure, searched by lookups and spliced by
    /// structural mutations.
    pub flat_directory_bytes: usize,
    /// Index overhead in bytes: flat directory + per-segment metadata
    /// (the quantity plotted on the x-axis of the paper's Figure 6).
    pub index_size_bytes: usize,
    /// Bytes of table data held in pages and buffers (not index
    /// overhead; reported for completeness).
    pub data_size_bytes: usize,
    /// Entries currently sitting in segment insert buffers.
    pub buffered_entries: usize,
    /// Cumulative incremental directory splices since construction —
    /// one per structural mutation (segment insert/remove,
    /// re-segmentation, run handoff). The operations that previously
    /// each paid an O(S) directory re-mirror. Every re-segmentation
    /// splices, a one-page re-fit under an unchanged anchor included
    /// (a 1 → 1 replace that shifts no tail), so splices ÷ inserts
    /// keeps counting re-segmentation *events* however cheap each is.
    pub directory_splices: u64,
    /// Cumulative segments written by those splices (the "moved
    /// segments" side of the O(moved + shift) splice cost).
    pub directory_splice_entries: u64,
    /// Cumulative new keys pushed onto a page tail in place (the
    /// paper's in-place insert strategy) instead of being buffered.
    pub in_place_appends: u64,
    /// Cumulative merge-and-re-segment passes over one segment (buffer
    /// overflow, tombstone pressure, the boundary segment of a split),
    /// whether the merged run was re-fitted in one piece or re-carved.
    pub resegmentations: u64,
    /// Cumulative entries those passes rewrote: each pass adds exactly
    /// the length of its merged run. ÷ inserts, this is the write
    /// amplification of back-fill — the *time* re-segmentation costs,
    /// where `directory_splices` ÷ inserts only counts how often. An
    /// overflow rewrites at most 64 × (`buffer_size` + 1) entries plus
    /// one buffer, so it stays below ≈ 65 per buffered insert; only a
    /// page grown past that by tail appends or bulk load is rewritten
    /// whole, once.
    pub resegmented_entries: u64,
    /// Mean entries per segment.
    pub avg_segment_len: f64,
    /// Configured total error budget.
    pub error: u64,
    /// Effective segmentation error (`error − buffer_size`).
    pub seg_error: u64,
    /// Per-segment buffer capacity.
    pub buffer_size: u64,
}

/// Phase timing of one instrumented lookup (paper Figure 13's
/// tree-vs-page breakdown). Produced by [`crate::FitingTree::get_traced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupTrace {
    /// Nanoseconds spent locating the covering segment (flat-directory
    /// search; historically a B+ tree descent, hence the field name).
    pub tree_nanos: u64,
    /// Nanoseconds spent interpolating and searching the segment
    /// (page window + buffer). The span ends when the slot is found:
    /// `get` returns a reference and the *caller* reads the value
    /// line, so that load — and whatever requesting it early saves —
    /// is the caller's time, not this field's.
    pub segment_nanos: u64,
}
