//! The report counters, declared once.
//!
//! Everything a [`Report`](crate::Report) counts lives in six plain
//! structs, each declared beside the subsystem that increments it:
//! [`ManagerStats`](crate::ManagerStats) and
//! [`DeltaStats`](crate::manager::DeltaStats) (`manager`),
//! [`FaultStats`](crate::FaultStats) (`recovery`),
//! [`CrashStats`](crate::CrashStats) (`checkpoint`),
//! [`AdmissionStats`](crate::AdmissionStats) (`admission`) and
//! [`FleetStats`](crate::FleetStats) (`fleet`). Each declaration goes
//! through `counter_table!`, which expands the one field list into the
//! struct, its checkpoint-image codec (it is a `record!`) and its
//! [`Counters`] impl, so the fleet merge, the migration
//! baseline, the checkpoint image and the export all carry every counter
//! by construction. Adding a counter is one line in its struct plus the
//! increment site; the hot path keeps writing plain `u64` /
//! [`SimDuration`] fields.

use fsim::SimDuration;

/// One counter as the visitor hands it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A plain event count.
    Count(u64),
    /// Accumulated simulated time.
    Time(SimDuration),
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Count(n)
    }
}

impl From<SimDuration> for Value {
    fn from(d: SimDuration) -> Value {
        Value::Time(d)
    }
}

/// What `counter_table!` derives from a counter struct's field list.
pub trait Counters: Sized {
    /// The field names, in declaration order.
    const FIELDS: &'static [&'static str];

    /// Field-wise `self += other`.
    fn add(&mut self, other: &Self);

    /// Field-wise `self -= base`, each field saturating at zero.
    fn sub(&mut self, base: &Self);

    /// Hand every `(field name, value)` to `f`, in declaration order.
    fn visit(&self, f: impl FnMut(&'static str, Value));
}

/// Declare a counter struct — attributes, docs, names and types exactly
/// as written, every field `u64` or [`SimDuration`] — as a checkpoint
/// image record (keyed by field name, durations as integer nanoseconds)
/// and implement [`Counters`] for it from the same field list.
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[doc = $doc:literal])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        fsim::record! {
            $(#[$meta])*
            pub struct $name {
                $($(#[doc = $doc])* pub $field: $ty,)*
            }
        }

        impl $crate::counters::Counters for $name {
            const FIELDS: &'static [&'static str] = &[$(stringify!($field)),*];

            fn add(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
            }

            fn sub(&mut self, base: &Self) {
                $(self.$field = self.$field.saturating_sub(base.$field);)*
            }

            fn visit(&self, mut f: impl FnMut(&'static str, $crate::counters::Value)) {
                $(f(stringify!($field), self.$field.into());)*
            }
        }
    };
}
pub(crate) use counter_table;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::DeltaStats;
    use crate::{AdmissionStats, CrashStats, FaultStats, FleetStats, ManagerStats};
    use fsim::json::Json;
    use fsim::json::Wire;
    use std::fmt::Debug;

    /// Field `i` (from 1) holds `i * scale`, set through `FIELDS` rather
    /// than by name, so a counter added tomorrow is covered unasked.
    fn filled<C: Counters + Wire>(scale: u64) -> C {
        let pairs = C::FIELDS.iter().zip(1..);
        let doc = pairs.map(|(k, i)| (k.to_string(), Json::UInt(i * scale)));
        C::read(&Json::Obj(doc.collect()), "counters").expect("one unsigned integer a field")
    }

    /// What the visitor reports, durations as their nanoseconds.
    fn visited<C: Counters>(c: &C) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        c.visit(|name, v| {
            out.push(match v {
                Value::Count(n) => (name, n),
                Value::Time(d) => (name, d.as_nanos()),
            })
        });
        out
    }

    fn scaled<C: Counters>(scale: u64) -> Vec<(&'static str, u64)> {
        let values = (1..).map(|i| i * scale);
        C::FIELDS.iter().copied().zip(values).collect()
    }

    fn check<C: Counters + Wire + Copy + Default + PartialEq + Debug>() {
        let (a, b) = (filled::<C>(10), filled::<C>(3));
        assert_eq!(visited(&a), scaled::<C>(10), "distinct, non-zero, in order");

        let mut sum = a;
        sum.add(&b);
        assert_eq!(visited(&sum), scaled::<C>(13));
        let mut diff = a;
        diff.sub(&b);
        assert_eq!(visited(&diff), scaled::<C>(7));
        let mut floor = b;
        floor.sub(&a);
        assert_eq!(floor, C::default(), "every field saturates at zero");
    }

    #[test]
    fn every_operation_carries_every_field_of_every_table() {
        check::<ManagerStats>();
        check::<FaultStats>();
        check::<CrashStats>();
        check::<AdmissionStats>();
        check::<DeltaStats>();
        check::<FleetStats>();
    }
}
