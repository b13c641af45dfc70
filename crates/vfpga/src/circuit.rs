//! The OS's circuit tables.
//!
//! At task load time ("the configuration desired by the task must be
//! declared and stored in the operating system tables at the beginning of
//! the task life", §3) each task registers the circuits it will use. The
//! [`CircuitLib`] is that table: compiled, relocatable circuits plus the
//! metadata the managers reason about (area, shape, frames, state bits,
//! clock period).

use fpga::bitstream::ColumnImage;
use fsim::SimDuration;
use pnr::{CompiledCircuit, RouteTemplate};
use std::sync::Arc;

/// Index into the OS circuit table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CircuitId(pub u32);

/// One registered circuit.
#[derive(Debug, Clone)]
pub struct CircuitImage {
    /// The compiled, relocatable circuit.
    pub compiled: Arc<CompiledCircuit>,
    /// What loading the circuit needs and no load origin changes, derived
    /// once at registration.
    relocatable: Arc<Relocatable>,
    /// One cycle at the derived clock, rounded up to a whole nanosecond
    /// (`compiled.run_ns(1)`): an FPGA op's duration is one multiply.
    cycle_ns: u64,
}

#[derive(Debug)]
struct Relocatable {
    routes: RouteTemplate,
    columns: ColumnImage,
}

impl CircuitImage {
    /// Wrap a compiled circuit.
    pub fn new(compiled: CompiledCircuit) -> Self {
        CircuitImage::from_shared(Arc::new(compiled))
    }

    /// Wrap an already-shared compiled circuit (e.g. from the process-wide
    /// compile cache) without copying it.
    pub fn from_shared(compiled: Arc<CompiledCircuit>) -> Self {
        let placed = &compiled.placed;
        let pins =
            pnr::PinAssignment::contiguous(placed.circuit.num_inputs, placed.circuit.outputs.len());
        let relocatable = Relocatable {
            routes: RouteTemplate::new(placed),
            columns: pnr::emit_bitstream(placed, (0, 0), &pins, false).columns(),
        };
        CircuitImage {
            cycle_ns: compiled.run_ns(1),
            compiled,
            relocatable: Arc::new(relocatable),
        }
    }

    /// The circuit's routing decisions in region-relative coordinates;
    /// the partition manager translates them to each load origin.
    pub fn route_template(&self) -> &RouteTemplate {
        &self.relocatable.routes
    }

    /// What the circuit's stream at origin `(0, 0)` on contiguous pins
    /// configures, column by column. Emission is relocatable, so two of
    /// these price a delta download at every origin.
    pub fn column_image(&self) -> &ColumnImage {
        &self.relocatable.columns
    }

    /// Circuit name.
    pub fn name(&self) -> &str {
        self.compiled.name()
    }

    /// CLBs occupied.
    pub fn blocks(&self) -> usize {
        self.compiled.blocks()
    }

    /// Region shape `(w, h)` in CLBs.
    pub fn shape(&self) -> (u32, u32) {
        self.compiled.shape()
    }

    /// Configuration frames the circuit touches (its columns).
    pub fn frames(&self) -> usize {
        self.compiled.shape().0 as usize
    }

    /// Flip-flop (state) bits.
    pub fn state_bits(&self) -> usize {
        self.compiled.state_bits()
    }

    /// Whether preemption must preserve state.
    pub fn is_sequential(&self) -> bool {
        self.compiled.is_sequential()
    }

    /// External I/O pin demand.
    pub fn io_count(&self) -> usize {
        self.compiled.io_count()
    }

    /// Time to run `cycles` synchronous cycles: `compiled.run_ns(cycles)`.
    #[inline]
    pub fn run_time(&self, cycles: u64) -> SimDuration {
        SimDuration::from_nanos(self.cycle_ns * cycles)
    }
}

/// The OS circuit table.
#[derive(Debug, Clone, Default)]
pub struct CircuitLib {
    circuits: Vec<CircuitImage>,
    /// Frames a delta between two circuits writes, derived at
    /// registration. The count is symmetric, so only pairs `(a, b)` with
    /// `b < a` are stored: row `a` starts at `a·(a−1)/2`.
    pairs: Vec<u16>,
}

impl CircuitLib {
    /// An empty table.
    pub fn new() -> Self {
        CircuitLib::default()
    }

    /// Register a circuit, returning its id. Its delta price against every
    /// circuit registered before it is derived here, so pricing a download
    /// is a table read.
    pub fn register(&mut self, image: CircuitImage) -> CircuitId {
        let id = CircuitId(self.circuits.len() as u32);
        let new = image.column_image();
        let row = self.circuits.iter().map(|old| {
            // A count past `u16::MAX` would need a circuit that many
            // columns wide; no modelled device comes near it.
            u16::try_from(old.column_image().changed_frames(new)).unwrap_or(u16::MAX)
        });
        self.pairs.extend(row);
        self.circuits.push(image);
        id
    }

    /// Register a compiled circuit directly.
    pub fn register_compiled(&mut self, compiled: CompiledCircuit) -> CircuitId {
        self.register(CircuitImage::new(compiled))
    }

    /// Register a shared compiled circuit (compile-cache output) without
    /// deep-copying it.
    pub fn register_shared(&mut self, compiled: Arc<CompiledCircuit>) -> CircuitId {
        self.register(CircuitImage::from_shared(compiled))
    }

    /// Look up a circuit.
    pub fn get(&self, id: CircuitId) -> &CircuitImage {
        &self.circuits[id.0 as usize]
    }

    /// Frames a download of `b` over `a`'s image writes (or of `a` over
    /// `b`'s: the count is symmetric): the columns their column images
    /// configure differently, the count `Bitstream::diff` of their streams
    /// reports. Zero for `a == b`.
    pub fn changed_frames(&self, a: CircuitId, b: CircuitId) -> usize {
        usize::from(self.pair(a, b))
    }

    fn pair(&self, a: CircuitId, b: CircuitId) -> u16 {
        let (hi, lo) = (a.0.max(b.0) as usize, a.0.min(b.0) as usize);
        if hi == lo {
            0
        } else {
            self.pairs[hi * (hi - 1) / 2 + lo]
        }
    }

    /// Check a circuit id read out of a checkpoint image: outside input,
    /// so it must name one of this library's circuits before
    /// [`get`](Self::get) may index with it.
    pub(crate) fn check_id(&self, id: CircuitId) -> Result<(), String> {
        let (id, n) = (id.0, self.circuits.len());
        if (id as usize) < n {
            Ok(())
        } else {
            Err(format!("circuit {id} is not in the library ({n} circuits)"))
        }
    }

    /// Number of registered circuits.
    pub fn len(&self) -> usize {
        self.circuits.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.circuits.is_empty()
    }

    /// Iterate `(id, image)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CircuitId, &CircuitImage)> {
        self.circuits
            .iter()
            .enumerate()
            .map(|(i, c)| (CircuitId(i as u32), c))
    }

    /// A new library containing only `ids`, renumbered `0..ids.len()` in
    /// the given order (cheap: compiled circuits are shared by `Arc`, and
    /// the pair counts are copied, not derived again).
    pub fn subset(&self, ids: &[CircuitId]) -> CircuitLib {
        let pairs = ids
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| ids[..i].iter().map(move |&b| self.pair(a, b)));
        CircuitLib {
            pairs: pairs.collect(),
            circuits: ids.iter().map(|&i| self.get(i).clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr::{compile, CompileOptions};

    fn lib_with(names: &[&str]) -> (CircuitLib, Vec<CircuitId>) {
        let mut lib = CircuitLib::new();
        let ids = names
            .iter()
            .map(|n| {
                let net = netlist::library::arith::ripple_adder(n, 4);
                lib.register_compiled(compile(&net, CompileOptions::default()).unwrap())
            })
            .collect();
        (lib, ids)
    }

    #[test]
    fn register_and_lookup() {
        let (lib, ids) = lib_with(&["a", "b"]);
        assert_eq!(lib.len(), 2);
        assert_eq!(lib.get(ids[0]).name(), "a");
        assert_eq!(lib.get(ids[1]).name(), "b");
        assert_eq!(lib.iter().count(), 2);
    }

    #[test]
    fn relocatable_artefacts_are_derived_once_and_shared() {
        let (lib, ids) = lib_with(&["a", "b"]);
        let img = lib.get(ids[1]);
        let placed = &img.compiled.placed;
        let pins =
            pnr::PinAssignment::contiguous(placed.circuit.num_inputs, placed.circuit.outputs.len());
        let stream = pnr::emit_bitstream(placed, (0, 0), &pins, false);
        assert_eq!(img.column_image(), &stream.columns());
        assert_eq!(
            img.column_image().changed_frames(&Default::default()),
            stream.frame_count(),
            "every column the stream writes holds a configured cell"
        );
        assert!(img.route_template().connections() > 0);
        // Clones and subset libraries re-use them instead of routing and
        // emitting again.
        assert!(std::ptr::eq(img.clone().column_image(), img.column_image()));
        let sub = lib.subset(&[ids[1]]);
        assert!(std::ptr::eq(
            sub.get(CircuitId(0)).route_template(),
            img.route_template()
        ));
        assert!(std::ptr::eq(
            sub.get(CircuitId(0)).column_image(),
            img.column_image()
        ));
        // So is each pair's delta price: derived once at registration,
        // symmetric, and carried into a subset under the new ids.
        let (a, b) = (lib.get(ids[0]).column_image(), img.column_image());
        assert_eq!(lib.changed_frames(ids[0], ids[1]), a.changed_frames(b));
        assert_eq!(lib.changed_frames(ids[1], ids[0]), b.changed_frames(a));
        assert_eq!(lib.changed_frames(ids[1], ids[1]), 0);
        let swapped = lib.subset(&[ids[1], ids[0]]);
        assert_eq!(swapped.pairs, lib.pairs, "one pair, either order");
        assert_eq!(
            swapped.changed_frames(CircuitId(0), CircuitId(1)),
            a.changed_frames(b)
        );
    }

    #[test]
    fn metadata_is_plausible() {
        let net = netlist::library::seq::lfsr("l8", 8, 0b10111000);
        let c = compile(&net, CompileOptions::default()).unwrap();
        let img = CircuitImage::new(c);
        assert!(img.blocks() >= 8);
        assert_eq!(img.state_bits(), 8);
        assert!(img.is_sequential());
        assert!(img.frames() > 0);
        assert!(img.run_time(100).as_nanos() > 0);
        // 10x the cycles = 10x the time.
        assert_eq!(
            img.run_time(100).as_nanos() * 10,
            img.run_time(1000).as_nanos()
        );
    }
}
