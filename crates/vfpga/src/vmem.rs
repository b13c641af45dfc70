//! Segmentation and pagination of over-large functions (§2).
//!
//! When one function exceeds the physical device, the paper proposes
//! decomposing its configuration:
//!
//! * **segmentation** — "decomposes the function … into smaller parts
//!   computing a self-contained sub-function and, as a consequence, having
//!   variable size";
//! * **pagination** — "partitions the function … into smaller portions of
//!   fixed size".
//!
//! This module simulates demand-loading of both over a column-budgeted
//! device: a *reference trace* (which chunk the computation needs next)
//! drives faults, placements, and evictions. Pagination suffers internal
//! fragmentation (the last page of a segment is padded) but places
//! uniformly; segmentation wastes no area inside chunks but fragments
//! externally and must fit variable-size holes.

use fpga::ConfigTiming;
use fsim::{SimDuration, SimTime, TraceEntry, TraceEvent};

/// Page-replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Evict the oldest-loaded victim.
    Fifo,
    /// Evict the least-recently-used victim.
    Lru,
    /// Second-chance clock.
    Clock,
}

/// Outcome counters of a demand-loading run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VmemStats {
    /// References served without loading.
    pub hits: u64,
    /// References that required a load.
    pub faults: u64,
    /// Chunks evicted.
    pub evictions: u64,
    /// Total configuration time spent on loads.
    pub load_time: SimDuration,
    /// Columns wasted by padding (internal fragmentation), column-refs
    /// accumulated per fault (pagination only).
    pub padding_columns: u64,
    /// Faults that failed because no hole fit even after eviction of every
    /// idle chunk (segmentation external fragmentation) — the reference
    /// then forces a full flush.
    pub flushes: u64,
}

impl VmemStats {
    /// Fault rate over all references.
    pub fn fault_rate(&self) -> f64 {
        let total = self.hits + self.faults;
        if total == 0 {
            0.0
        } else {
            self.faults as f64 / total as f64
        }
    }
}

/// A function decomposed into segments (self-contained sub-functions).
#[derive(Debug, Clone)]
pub struct SegmentedFunction {
    /// Column width of each segment.
    pub segment_widths: Vec<u32>,
}

impl SegmentedFunction {
    /// Total configuration columns.
    pub fn total_columns(&self) -> u32 {
        self.segment_widths.iter().sum()
    }
}

/// Demand-loaded segmentation over a `budget`-column device.
#[derive(Debug)]
pub struct SegmentSim {
    func: SegmentedFunction,
    timing: ConfigTiming,
    budget: u32,
    /// Loaded segments as `(segment, start_col)`.
    loaded: Vec<(usize, u32)>,
    /// LRU stamps per segment.
    stamps: Vec<u64>,
    clock: u64,
    stats: VmemStats,
    recording: bool,
    events: Vec<TraceEntry>,
}

impl SegmentSim {
    /// New simulator; `budget` is the column capacity dedicated to this
    /// function.
    pub fn new(func: SegmentedFunction, timing: ConfigTiming, budget: u32) -> Self {
        assert!(
            func.segment_widths.iter().all(|&w| w <= budget),
            "a single segment exceeding the budget can never load"
        );
        let n = func.segment_widths.len();
        SegmentSim {
            func,
            timing,
            budget,
            loaded: Vec::new(),
            stamps: vec![0; n],
            clock: 0,
            stats: VmemStats::default(),
            recording: false,
            events: Vec::new(),
        }
    }

    /// Record typed [`TraceEvent::PageFault`] events for later
    /// [`drain_events`](Self::drain_events). Off by default.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
        if !on {
            self.events.clear();
        }
    }

    /// Take the recorded fault events. Timestamps are the cumulative load
    /// time at the fault (the sim has no external clock of its own).
    pub fn drain_events(&mut self) -> Vec<TraceEntry> {
        std::mem::take(&mut self.events)
    }

    fn charge_load(&mut self, width: u32) -> SimDuration {
        use fpga::config::{FRAME_ADDR_BITS, HEADER_BITS};
        let bits = HEADER_BITS + width as u64 * (FRAME_ADDR_BITS + self.timing.frame_bits());
        let ns = bits.saturating_mul(1_000_000_000) / self.timing.port.bits_per_sec();
        let d = SimDuration::from_nanos(ns);
        self.stats.load_time += d;
        d
    }

    /// Find a hole of at least `w` columns among loaded segments.
    fn find_hole(&self, w: u32) -> Option<u32> {
        let mut occupied: Vec<(u32, u32)> = self
            .loaded
            .iter()
            .map(|&(s, c)| (c, self.func.segment_widths[s]))
            .collect();
        occupied.sort_unstable();
        let mut cursor = 0;
        for (c, width) in occupied {
            if c - cursor >= w {
                return Some(cursor);
            }
            cursor = c + width;
        }
        if self.budget - cursor >= w {
            Some(cursor)
        } else {
            None
        }
    }

    /// Reference segment `s`: hit or demand-load it.
    pub fn reference(&mut self, s: usize) {
        self.clock += 1;
        self.stamps[s] = self.clock;
        if self.loaded.iter().any(|&(seg, _)| seg == s) {
            self.stats.hits += 1;
            return;
        }
        self.stats.faults += 1;
        let w = self.func.segment_widths[s];
        let mut last_victim: Option<u32> = None;
        // Evict LRU segments until a hole fits.
        loop {
            if let Some(col) = self.find_hole(w) {
                self.loaded.push((s, col));
                let d = self.charge_load(w);
                if self.recording {
                    self.events.push(TraceEntry {
                        at: SimTime::ZERO + self.stats.load_time,
                        event: TraceEvent::PageFault {
                            page: s as u32,
                            policy: "segment-lru",
                            victim: last_victim,
                            duration: d,
                        },
                    });
                }
                return;
            }
            if self.loaded.is_empty() {
                unreachable!("empty device must always have a hole (segment <= budget)");
            }
            // External fragmentation can leave total-free >= w with no
            // contiguous hole even after evictions; count a flush when we
            // evict the last resident and note it separately.
            let victim_pos = self
                .loaded
                .iter()
                .enumerate()
                .min_by_key(|(_, &(seg, _))| self.stamps[seg])
                .map(|(i, _)| i)
                .expect("nonempty");
            last_victim = Some(self.loaded[victim_pos].0 as u32);
            self.loaded.remove(victim_pos);
            self.stats.evictions += 1;
            if self.loaded.is_empty() {
                self.stats.flushes += 1;
            }
        }
    }

    /// Run a whole trace.
    pub fn run_trace(&mut self, trace: &[usize]) -> VmemStats {
        for &s in trace {
            self.reference(s);
        }
        self.stats
    }

    /// Current counters.
    pub fn stats(&self) -> VmemStats {
        self.stats
    }
}

/// Demand paging of the same function: segments are cut into fixed
/// `page_width`-column pages; the last page of each segment is padded.
#[derive(Debug)]
pub struct PagingSim {
    /// Page count per segment and the padding each one carries.
    seg_pages: Vec<(u32, u32)>,
    timing: ConfigTiming,
    page_width: u32,
    /// Frame slots: which `(segment, page)` occupies each slot.
    slots: Vec<Option<(usize, u32)>>,
    /// Per-slot recency / load stamps and clock reference bits.
    stamps: Vec<u64>,
    loaded_at: Vec<u64>,
    ref_bits: Vec<bool>,
    hand: usize,
    policy: Replacement,
    clock: u64,
    stats: VmemStats,
    /// First flat page id of each segment (for fault events).
    page_base: Vec<u32>,
    recording: bool,
    events: Vec<TraceEntry>,
}

impl PagingSim {
    /// New simulator over the same segmented function; `budget` columns
    /// yield `budget / page_width` page slots.
    pub fn new(
        func: &SegmentedFunction,
        timing: ConfigTiming,
        budget: u32,
        page_width: u32,
        policy: Replacement,
    ) -> Self {
        assert!(page_width >= 1);
        let n_slots = (budget / page_width) as usize;
        assert!(n_slots >= 1, "budget below one page");
        let seg_pages: Vec<(u32, u32)> = func
            .segment_widths
            .iter()
            .map(|&w| {
                let pages = w.div_ceil(page_width);
                let padding = pages * page_width - w;
                (pages, padding)
            })
            .collect();
        let mut page_base = Vec::with_capacity(seg_pages.len());
        let mut base = 0u32;
        for &(pages, _) in &seg_pages {
            page_base.push(base);
            base += pages;
        }
        PagingSim {
            seg_pages,
            timing,
            page_width,
            slots: vec![None; n_slots],
            stamps: vec![0; n_slots],
            loaded_at: vec![0; n_slots],
            ref_bits: vec![false; n_slots],
            hand: 0,
            policy,
            clock: 0,
            stats: VmemStats::default(),
            page_base,
            recording: false,
            events: Vec::new(),
        }
    }

    /// Total page slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Record typed [`TraceEvent::PageFault`] events for later
    /// [`drain_events`](Self::drain_events). Off by default.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
        if !on {
            self.events.clear();
        }
    }

    /// Take the recorded fault events. Timestamps are the cumulative load
    /// time at the fault (the sim has no external clock of its own).
    pub fn drain_events(&mut self) -> Vec<TraceEntry> {
        std::mem::take(&mut self.events)
    }

    fn policy_name(&self) -> &'static str {
        match self.policy {
            Replacement::Fifo => "fifo",
            Replacement::Lru => "lru",
            Replacement::Clock => "clock",
        }
    }

    fn charge_load(&mut self) -> SimDuration {
        use fpga::config::{FRAME_ADDR_BITS, HEADER_BITS};
        let bits =
            HEADER_BITS + self.page_width as u64 * (FRAME_ADDR_BITS + self.timing.frame_bits());
        let ns = bits.saturating_mul(1_000_000_000) / self.timing.port.bits_per_sec();
        let d = SimDuration::from_nanos(ns);
        self.stats.load_time += d;
        d
    }

    fn pick_victim(&mut self) -> usize {
        if let Some(i) = self.slots.iter().position(|s| s.is_none()) {
            return i;
        }
        match self.policy {
            Replacement::Fifo => (0..self.slots.len())
                .min_by_key(|&i| self.loaded_at[i])
                .expect("nonempty"),
            Replacement::Lru => (0..self.slots.len())
                .min_by_key(|&i| self.stamps[i])
                .expect("nonempty"),
            Replacement::Clock => loop {
                let i = self.hand;
                self.hand = (self.hand + 1) % self.slots.len();
                if self.ref_bits[i] {
                    self.ref_bits[i] = false;
                } else {
                    return i;
                }
            },
        }
    }

    /// Reference a segment: every page of the segment must be resident
    /// (a self-contained sub-function needs all of its logic); pages fault
    /// individually.
    pub fn reference(&mut self, seg: usize) {
        let (pages, padding) = self.seg_pages[seg];
        for p in 0..pages {
            self.clock += 1;
            if let Some(i) = self.slots.iter().position(|s| *s == Some((seg, p))) {
                self.stats.hits += 1;
                self.stamps[i] = self.clock;
                self.ref_bits[i] = true;
                continue;
            }
            self.stats.faults += 1;
            let v = self.pick_victim();
            let victim = self.slots[v].map(|(s, vp)| self.page_base[s] + vp);
            if self.slots[v].is_some() {
                self.stats.evictions += 1;
            }
            self.slots[v] = Some((seg, p));
            self.stamps[v] = self.clock;
            self.loaded_at[v] = self.clock;
            self.ref_bits[v] = true;
            let d = self.charge_load();
            if self.recording {
                self.events.push(TraceEntry {
                    at: SimTime::ZERO + self.stats.load_time,
                    event: TraceEvent::PageFault {
                        page: self.page_base[seg] + p,
                        policy: self.policy_name(),
                        victim,
                        duration: d,
                    },
                });
            }
            // Internal fragmentation: the padded tail travels with the
            // last page of the segment.
            if p == pages - 1 {
                self.stats.padding_columns += padding as u64;
            }
        }
    }

    /// Run a whole trace of segment references.
    pub fn run_trace(&mut self, trace: &[usize]) -> VmemStats {
        for &s in trace {
            self.reference(s);
        }
        self.stats
    }

    /// Current counters.
    pub fn stats(&self) -> VmemStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system_tests::timing;

    fn func() -> SegmentedFunction {
        SegmentedFunction {
            segment_widths: vec![3, 5, 2, 4, 6],
        }
    }

    #[test]
    fn segment_repeat_references_hit() {
        let mut s = SegmentSim::new(func(), timing(), 20);
        let st = s.run_trace(&[0, 0, 0, 1, 1, 0]);
        assert_eq!(st.faults, 2, "first touch of 0 and 1 only");
        assert_eq!(st.hits, 4);
        assert!(st.load_time > SimDuration::ZERO);
    }

    #[test]
    fn small_budget_forces_segment_evictions() {
        // Budget 8 can hold segments (3,5) or fewer; cycling through all
        // five must evict.
        let mut s = SegmentSim::new(func(), timing(), 8);
        let st = s.run_trace(&[0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
        assert!(st.evictions > 0);
        assert!(st.fault_rate() > 0.5);
    }

    #[test]
    fn big_budget_never_evicts() {
        let mut s = SegmentSim::new(func(), timing(), 20);
        let st = s.run_trace(&[0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
        assert_eq!(st.evictions, 0);
        assert_eq!(st.faults, 5);
        assert_eq!(st.hits, 5);
    }

    #[test]
    #[should_panic(expected = "never load")]
    fn oversized_segment_rejected() {
        SegmentSim::new(func(), timing(), 4);
    }

    #[test]
    fn paging_counts_padding() {
        // Page width 4: segment widths 3,5,2,4,6 -> pages 1,2,1,1,2 with
        // paddings 1,3,2,0,2.
        let mut p = PagingSim::new(&func(), timing(), 20, 4, Replacement::Lru);
        let st = p.run_trace(&[0, 1, 2, 3, 4]);
        assert_eq!(st.padding_columns, 8); // paddings 1,3,2,0,2
        assert_eq!(st.faults, 7, "1+2+1+1+2 pages");
    }

    #[test]
    fn paging_hits_on_repeat() {
        let mut p = PagingSim::new(&func(), timing(), 20, 4, Replacement::Lru);
        p.reference(1);
        let before = p.stats().faults;
        p.reference(1);
        let st = p.stats();
        assert_eq!(st.faults, before, "second touch is all hits");
        assert_eq!(st.hits, 2);
    }

    #[test]
    fn lru_beats_fifo_on_looping_trace_with_reuse() {
        // A trace with strong reuse of segment 0.
        let trace: Vec<usize> = (0..60)
            .map(|i| if i % 2 == 0 { 0 } else { 1 + (i / 2) % 4 })
            .collect();
        let fault = |policy| {
            let mut p = PagingSim::new(&func(), timing(), 12, 4, policy);
            p.run_trace(&trace).faults
        };
        let lru = fault(Replacement::Lru);
        let fifo = fault(Replacement::Fifo);
        assert!(lru <= fifo, "LRU must exploit reuse: {lru} vs {fifo}");
    }

    #[test]
    fn clock_approximates_lru() {
        let trace: Vec<usize> = (0..80).map(|i| [0, 1, 0, 2, 0, 3, 0, 4][i % 8]).collect();
        let fault = |policy| {
            let mut p = PagingSim::new(&func(), timing(), 12, 4, policy);
            p.run_trace(&trace).faults
        };
        let lru = fault(Replacement::Lru);
        let clock = fault(Replacement::Clock);
        let fifo = fault(Replacement::Fifo);
        assert!(
            clock <= fifo + 2,
            "clock should not be much worse than FIFO"
        );
        assert!(lru <= clock + 2);
    }

    #[test]
    fn more_slots_never_increase_lru_faults() {
        // LRU is a stack algorithm: no Belady anomaly.
        let trace: Vec<usize> = (0..100).map(|i| i % 5).collect();
        let fault = |budget| {
            let mut p = PagingSim::new(&func(), timing(), budget, 2, Replacement::Lru);
            p.run_trace(&trace).faults
        };
        assert!(fault(8) >= fault(12));
        assert!(fault(12) >= fault(20));
    }

    #[test]
    fn segmentation_has_no_padding() {
        let mut s = SegmentSim::new(func(), timing(), 20);
        let st = s.run_trace(&[0, 1, 2, 3, 4]);
        assert_eq!(st.padding_columns, 0);
    }
}
