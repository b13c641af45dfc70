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
//! struct and its [`Counters`] impl, so the fleet merge, the migration
//! baseline, the checkpoint image and the export all carry every counter
//! by construction. Adding a counter is one line in its struct plus the
//! increment site; the hot path keeps writing plain `u64` /
//! [`SimDuration`] fields.

use fsim::json::Json;
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

    /// The counters as one object of a checkpoint image: key = field
    /// name, durations as integer nanoseconds.
    fn to_json(&self) -> Json;

    /// Strict inverse of [`to_json`](Self::to_json): every field, in
    /// declaration order, as an unsigned integer, and nothing else.
    fn from_json(v: &Json) -> Result<Self, String>;
}

/// Declare a counter struct — attributes, docs, names and types exactly
/// as written, every field `u64` or [`SimDuration`] — and implement
/// [`Counters`] for it from the same field list.
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
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

            fn to_json(&self) -> fsim::json::Json {
                use $crate::image::Scalar;
                fsim::json::Obj::new()
                    $(.set(stringify!($field), self.$field.json()))*
                    .build()
            }

            fn from_json(v: &fsim::json::Json) -> Result<Self, String> {
                let mut f = $crate::image::Fields::of(v, stringify!($name))?;
                let read = Self { $($field: f.get(stringify!($field))?),* };
                f.end()?;
                Ok(read)
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
    use std::fmt::Debug;

    /// Field `i` (from 1) holds `i * scale`, set through `FIELDS` rather
    /// than by name, so a counter added tomorrow is covered unasked.
    fn filled<C: Counters>(scale: u64) -> C {
        let pairs = C::FIELDS.iter().zip(1..);
        C::from_json(&Json::Obj(
            pairs
                .map(|(k, i)| (k.to_string(), Json::UInt(i * scale)))
                .collect(),
        ))
        .expect("one unsigned integer a field")
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

    fn check<C: Counters + Copy + Default + PartialEq + Debug>() {
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

        let text = a.to_json().render();
        let tree = Json::parse(&text).expect("rendering parses");
        assert_eq!(C::from_json(&tree), Ok(a));
        let Json::Obj(pairs) = tree else {
            panic!("counters render as an object")
        };
        assert_eq!(pairs.len(), C::FIELDS.len());
        let rejects = |what: &str, damaged: Vec<(String, Json)>| {
            let got = C::from_json(&Json::Obj(damaged));
            assert!(got.is_err(), "{what} accepted: {got:?}");
        };
        for i in 0..pairs.len() {
            let mut missing = pairs.clone();
            missing.remove(i);
            rejects("missing key", missing);
            let mut duplicated = pairs.clone();
            duplicated.insert(i, pairs[i].clone());
            rejects("duplicated key", duplicated);
            let mut shadowed = pairs.clone();
            shadowed[i] = pairs[(i + 1) % pairs.len()].clone();
            rejects("key in another's place", shadowed);
            let mut reordered = pairs.clone();
            reordered.swap(i, (i + 1) % pairs.len());
            rejects("reordered keys", reordered);
            for wrong in [Json::Num(1.0), Json::Int(-1), Json::from("1"), Json::Null] {
                let mut wrong_kind = pairs.clone();
                wrong_kind[i].1 = wrong;
                rejects("wrong-kind value", wrong_kind);
            }
        }
        let mut extra = pairs.clone();
        extra.push(("extra".into(), Json::UInt(0)));
        rejects("extra key", extra);
        assert!(C::from_json(&Json::Arr(Vec::new())).is_err());
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
