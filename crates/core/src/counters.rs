//! One declaration per counter set.
//!
//! [`counter_table!`](crate::counter_table) declares a struct of named
//! counters once and derives from it everything that would otherwise
//! be written out field by field: `merge`, the `(name, value)` list,
//! `to_json`, and the aligned text table behind `implicitc --metrics`.
//! Adding a counter takes its declaration row and the code that
//! increments it.
//!
//! A table is a list of sections, each a brace-delimited list of
//! rows. A row is `name: Type`, optionally followed by `= max` (the
//! default merge is `sum`) and by `=> "label"` (the text-table label;
//! the default is the field name, its underscores printed as spaces).
//! A section prefixed with `if (a, b)` is printed only when one of
//! those counters is nonzero, and a section suffixed with
//! `rate "label" (hits, misses)` ends with a hit-rate row. A row's
//! type is anything implementing [`Counter`].

use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

/// A value a [`counter_table!`](crate::counter_table) row can hold.
pub trait Counter {
    /// The current value.
    fn get(&self) -> u64;
    /// Folds `other` in by addition.
    fn sum(&mut self, other: &Self);
    /// Folds `other` in by maximum (high-water marks).
    fn max(&mut self, other: &Self);
}

macro_rules! plain_counter {
    ($($t:ty),*) => {$(
        impl Counter for $t {
            fn get(&self) -> u64 {
                *self as u64
            }
            fn sum(&mut self, other: &$t) {
                *self += *other;
            }
            fn max(&mut self, other: &$t) {
                *self = Ord::max(*self, *other);
            }
        }
    )*};
}

plain_counter!(u64, usize);

/// Shared counters (the daemon's, bumped from many threads).
impl Counter for AtomicU64 {
    fn get(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }
    fn sum(&mut self, other: &AtomicU64) {
        *self.get_mut() += Counter::get(other);
    }
    fn max(&mut self, other: &AtomicU64) {
        *self.get_mut() = Counter::get(self).max(Counter::get(other));
    }
}

/// A counter's JSON field. A `…_us` counter is a duration in
/// microseconds and renders as `…_ms`, in milliseconds; every other
/// counter renders as an integer under its own name.
pub fn json_field(name: &str, value: u64) -> (String, Json) {
    match name.strip_suffix("_us") {
        Some(stem) => (format!("{stem}_ms"), Json::Num(value as f64 / 1000.0)),
        None => (name.to_owned(), Json::Int(value as i64)),
    }
}

/// Whether a section with these gate values is printed: always when
/// it has no gate, else when one of them is nonzero.
pub fn live(gates: &[u64]) -> bool {
    gates.is_empty() || gates.iter().any(|&g| g != 0)
}

/// Appends one aligned text-table row; underscores in the label
/// print as spaces.
pub fn row(out: &mut String, label: &str, value: impl Display) {
    let label = label.replace('_', " ");
    let _ = writeln!(out, "  {label:<24} {value:>12}");
}

/// Appends a hit-rate row (a percentage with one decimal).
pub fn rate_row(out: &mut String, label: &str, hits: u64, misses: u64) {
    let rate = 100.0 * hits as f64 / (hits + misses) as f64;
    row(out, label, format!("{rate:.1}%"));
}

/// Declares a counter struct and derives `merge`, `as_pairs`,
/// `to_json` and `render_table` from its rows (grammar in the
/// [module docs](crate::counters)).
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(if ($($gate:ident),+))? {
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident: $ty:ty $(= $merge:ident)? $(=> $label:literal)?,
                    )+
                } $(rate $rlabel:literal ($hits:ident, $misses:ident))?
            )+
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(
                $(#[$fmeta])*
                pub $field: $ty,
            )+)+
        }

        impl $name {
            /// Folds every counter of `other` into `self` (sums, and
            /// maxima for high-water marks).
            pub fn merge(&mut self, other: &$name) {
                $($(
                    $crate::__counter_merge!(self.$field, other.$field $(, $merge)?);
                )+)+
            }

            /// Every counter as `(name, value)`, in declaration order.
            pub fn as_pairs(&self) -> Vec<(&'static str, u64)> {
                use $crate::counters::Counter;
                vec![$($((stringify!($field), Counter::get(&self.$field)),)+)+]
            }

            /// The counters as one flat JSON object, in declaration
            /// order (fields as `implicit_core::counters::json_field`
            /// renders them).
            pub fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(
                    self.as_pairs()
                        .into_iter()
                        .map(|(k, v)| $crate::counters::json_field(k, v))
                        .collect(),
                )
            }

            /// The aligned human-readable table; sections whose gate
            /// counters are all zero are skipped.
            pub fn render_table(&self) -> String {
                use $crate::counters::{live, rate_row, row, Counter};
                let mut out = String::new();
                $(
                    if live(&[$($(Counter::get(&self.$gate)),+)?]) {
                        $(row(
                            &mut out,
                            $crate::__counter_label!(stringify!($field) $(, $label)?),
                            Counter::get(&self.$field),
                        );)+
                        $(rate_row(
                            &mut out,
                            $rlabel,
                            Counter::get(&self.$hits),
                            Counter::get(&self.$misses),
                        );)?
                    }
                )+
                if out.is_empty() {
                    out.push_str("  (no activity recorded)\n");
                }
                out
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __counter_merge {
    ($a:expr, $b:expr) => {
        $crate::counters::Counter::sum(&mut $a, &$b)
    };
    ($a:expr, $b:expr, $merge:ident) => {
        $crate::counters::Counter::$merge(&mut $a, &$b)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __counter_label {
    ($name:expr) => {
        $name
    };
    ($name:expr, $label:literal) => {
        $label
    };
}
