//! The grid runner: a sweep declared as data, run the same way everywhere.
//!
//! A grid experiment states *what* it sweeps as a [`Grid`] — the points
//! (blocks of base points crossed with smoke/full axes), a cell function,
//! named gates, the table's columns, the reports each cell exports, the
//! params and the prose — and [`run`] does everything in between: the
//! product in nested-loop order, each cell in turn, the gates, the
//! table, the [`Exporter`] and stdout. Experiments that
//! are not one grid (E6, E8, E9) keep a bespoke `run`.

use super::RunArgs;
use crate::report::Table;
use crate::{Exporter, Json};
use vfpga::Report;

/// One swept point after its cell ran: its label, the point, the output.
pub struct Cell<P, C> {
    pub label: String,
    pub point: P,
    pub out: C,
}

/// A table column: header, and the cell's entry.
pub type Column<P, C> = (&'static str, fn(&Cell<P, C>) -> String);

/// A predicate over `T`, a cell or the run; `Err` says what broke.
pub type Check<T> = fn(&T) -> Result<(), String>;

/// A named predicate.
pub enum Gate<P, C> {
    /// Must hold for every cell; a failure names the cell.
    Each(&'static str, Check<Cell<P, C>>),
    /// Must hold for the run as a whole.
    All(&'static str, Check<[Cell<P, C>]>),
}

// Not derived: a derive would ask `P` and `C` to be `Clone` too.
impl<P, C> Clone for Gate<P, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P, C> Copy for Gate<P, C> {}

/// The reports a cell exports, each under its label.
pub type Reports<P, C> = fn(&Cell<P, C>) -> Vec<(String, &Report)>;

/// A gate's verdict: `Ok` when `ok`, else `Err(why())`.
pub fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// An axis: each of its values, written into a copy of the point.
pub struct Axis<'a, P> {
    expand: Expand<'a, P>,
}

/// A point's copies, one for each value of an axis at the run's size.
type Expand<'a, P> = Box<dyn Fn(&P, bool) -> Vec<P> + 'a>;

/// An axis taking the `smoke` values in a smoke run and the `full` ones
/// otherwise; `set` writes one value into a point.
pub fn axis<'a, P: Clone + 'a, T: Clone + 'a>(
    smoke: &[T],
    full: &[T],
    set: fn(&mut P, T),
) -> Axis<'a, P> {
    let (smoke, full) = (smoke.to_vec(), full.to_vec());
    let expand = move |p: &P, small: bool| {
        let values = if small { &smoke } else { &full };
        let with = |v: &T| {
            let mut q = p.clone();
            set(&mut q, v.clone());
            q
        };
        values.iter().map(with).collect()
    };
    Axis {
        expand: Box::new(expand),
    }
}

/// An axis with the same `values` at either size.
pub fn fixed<'a, P: Clone + 'a, T: Clone + 'a>(values: &[T], set: fn(&mut P, T)) -> Axis<'a, P> {
    axis(values, values, set)
}

/// Base points, each crossed with every axis (the first axis outermost).
pub struct Block<'a, P> {
    bases: Vec<P>,
    axes: Vec<Axis<'a, P>>,
}

/// `base` crossed with `axes`, in nested-loop order.
pub fn product<P>(base: P, axes: Vec<Axis<'_, P>>) -> Block<'_, P> {
    Block {
        bases: vec![base],
        axes,
    }
}

/// Named extra points, at either size.
pub fn points<'a, P>(points: Vec<P>) -> Block<'a, P> {
    Block {
        bases: points,
        axes: Vec::new(),
    }
}

fn expand<P: Clone>(blocks: &[Block<'_, P>], smoke: bool) -> Vec<P> {
    let mut out = Vec::new();
    for b in blocks {
        let mut ps = b.bases.clone();
        for a in &b.axes {
            ps = ps.iter().flat_map(|p| (a.expand)(p, smoke)).collect();
        }
        out.extend(ps);
    }
    out
}

/// A reports function exporting one report, the cell's output, under the
/// cell's label.
pub fn own_report<P>(c: &Cell<P, Report>) -> Vec<(String, &Report)> {
    vec![(c.label.clone(), &c.out)]
}

/// One grid experiment, declared.
pub struct Grid<'a, P, C> {
    /// The export's `experiment` id (`"e15"`) and title.
    pub code: &'static str,
    pub title: &'static str,
    pub seed: u64,
    /// Recorded in order; a seeded experiment's `smoke` follows them.
    pub params: Vec<(&'static str, Json)>,
    /// Printed before the sweep.
    pub intro: &'a str,
    /// Blocks of points, in order.
    pub points: Vec<Block<'a, P>>,
    pub label: fn(&P) -> String,
    /// Runs one point; `Err` fails the run, naming the cell.
    pub cell: &'a dyn Fn(&P) -> Result<C, String>,
    /// Checked in order over every cell, then the run, before any output.
    pub gates: &'a [Gate<P, C>],
    pub table: &'a str,
    pub columns: &'a [Column<P, C>],
    pub reports: Reports<P, C>,
    /// Run-level params, metrics and timelines derived from the cells.
    pub finish: fn(&[Cell<P, C>], &mut Exporter),
    /// Printed after the table.
    pub outro: &'a str,
}

/// The empty grid: no points, no gates, no columns, no prose — what a
/// declaration's `..Grid::default()` leaves out.
impl<P, C> Default for Grid<'_, P, C> {
    fn default() -> Self {
        Grid {
            code: "",
            title: "",
            seed: 0,
            params: Vec::new(),
            intro: "",
            points: Vec::new(),
            label: |_| String::new(),
            cell: &|_| Err("a grid without a cell function".into()),
            gates: &[],
            table: "",
            columns: &[],
            reports: |_| Vec::new(),
            finish: |_, _| {},
            outro: "",
        }
    }
}

/// Run `grid`: every point through its cell, in point order, the gates,
/// then the table on stdout and the export.
pub fn run<P: Clone, C>(args: &RunArgs, grid: Grid<'_, P, C>) -> Result<Exporter, String> {
    let points = expand(&grid.points, args.smoke);
    print!("{}", grid.intro);
    let mut cells = Vec::with_capacity(points.len());
    for point in points {
        let label = (grid.label)(&point);
        let out = (grid.cell)(&point).map_err(|e| format!("{label}: {e}"))?;
        cells.push(Cell { label, point, out });
    }
    for c in &cells {
        for gate in grid.gates {
            if let Gate::Each(name, check) = gate {
                check(c).map_err(|e| format!("{}: {name}: {e}", c.label))?;
            }
        }
    }
    for gate in grid.gates {
        if let Gate::All(name, check) = gate {
            check(&cells).map_err(|e| format!("{name}: {e}"))?;
        }
    }

    let mut ex = Exporter::new(grid.code, grid.title);
    ex.seed(grid.seed);
    for (name, value) in grid.params {
        ex.param(name, value);
    }
    if args.seed.is_some() {
        ex.param("smoke", args.smoke);
    }
    let headers: Vec<&str> = grid.columns.iter().map(|c| c.0).collect();
    let mut t = Table::new(grid.table, &headers);
    for c in &cells {
        t.row(grid.columns.iter().map(|col| (col.1)(c)).collect());
        for (label, r) in (grid.reports)(c) {
            ex.report(&label, r);
        }
    }
    (grid.finish)(&cells, &mut ex);
    t.print();
    ex.table(&t);
    print!("{}", grid.outro);
    Ok(ex)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Point(&'static str, u32);

    fn blocks() -> Vec<Block<'static, Point>> {
        vec![
            points(vec![Point("first", 0)]),
            product(
                Point("", 0),
                vec![
                    axis(&["a"], &["a", "b"], |p, v| p.0 = v),
                    axis(&[1, 2], &[1, 2, 3], |p, v| p.1 = v),
                ],
            ),
            points(vec![Point("last", 9)]),
        ]
    }

    fn args(smoke: bool) -> RunArgs {
        RunArgs { smoke, seed: None }
    }

    fn grid<'a>(gates: &'a [Gate<Point, Report>]) -> Grid<'a, Point, Report> {
        Grid {
            code: "e99",
            title: "synthetic",
            seed: 7,
            params: vec![("n", 2u64.into())],
            intro: "",
            points: blocks(),
            label: |p| format!("{}/{}", p.0, p.1),
            cell: &|_| Ok(Report::default()),
            gates,
            table: "T",
            columns: &[
                ("label", |c| c.label.clone()),
                ("n", |c| c.point.1.to_string()),
            ],
            reports: own_report,
            finish: |cells, ex| {
                ex.metrics().inc("cells", cells.len() as u64);
            },
            outro: "",
        }
    }

    #[test]
    fn points_come_out_in_nested_loop_order_with_the_extras_in_place() {
        let p = |s, n| Point(s, n);
        let smoke = vec![p("first", 0), p("a", 1), p("a", 2), p("last", 9)];
        assert_eq!(expand(&blocks(), true), smoke);
        let full = vec![
            p("first", 0),
            p("a", 1),
            p("a", 2),
            p("a", 3),
            p("b", 1),
            p("b", 2),
            p("b", 3),
            p("last", 9),
        ];
        assert_eq!(expand(&blocks(), false), full);
    }

    #[test]
    fn a_failing_gate_names_the_cell_and_the_gate_and_exports_nothing() {
        let gates = [Gate::Each("only the first", |c: &Cell<Point, Report>| {
            ensure(c.point.0 == "first", || format!("{} came later", c.point.0))
        })];
        let err = run(&args(true), grid(&gates)).err();
        assert_eq!(err.as_deref(), Some("a/1: only the first: a came later"));
        let gates = [Gate::All("never", |_: &[Cell<Point, Report>]| {
            Err("no".into())
        })];
        let err = run(&args(true), grid(&gates)).err();
        assert_eq!(err.as_deref(), Some("never: no"));
    }

    #[test]
    fn a_passing_grid_exports_its_rows_and_reports_in_point_order() {
        let ex = run(&args(false), grid(&[])).expect("no gates");
        let doc = ex.to_json();
        let tables = doc.get("tables").and_then(Json::as_arr).unwrap();
        assert_eq!(tables.len(), 1);
        let rows = tables[0].get("rows").and_then(Json::as_arr).unwrap();
        let labels: Vec<String> = expand(&blocks(), false)
            .iter()
            .map(|p| format!("{}/{}", p.0, p.1))
            .collect();
        let first = |r: &Json| match r.as_arr().map(|r| &r[0]) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("not a label: {other:?}"),
        };
        assert_eq!(rows.iter().map(first).collect::<Vec<_>>(), labels);
        let reports = doc.get("reports").and_then(Json::as_arr).unwrap();
        let label = |r: &Json| match r.get("label") {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("not a label: {other:?}"),
        };
        assert_eq!(reports.iter().map(label).collect::<Vec<_>>(), labels);
        let params = doc.get("params").unwrap().render();
        assert!(!params.contains("smoke"), "a fixed-seed grid has one size");
        let counters = doc.get("metrics").and_then(|m| m.get("counters"));
        let finished = counters.and_then(|c| c.get("cells"));
        assert_eq!(finished, Some(&Json::UInt(8)), "finish saw every cell");
    }
}
