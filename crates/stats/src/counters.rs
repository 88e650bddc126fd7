//! The counter table: every simulator counter is declared exactly once.
//!
//! [`counters!`](crate::counters) takes ordinary struct syntax and
//! generates the struct plus a [`Counters`] impl that walks its fields
//! by name, in declaration order, through shared or mutable references.
//! Serializers, parsers and tests iterate that walk instead of restating
//! the fields, so a counter added to a table is emitted, parsed and
//! round-trip tested without touching any of them.
//!
//! A table field is a `u64`, a `[u64; N]`, or another table-declared
//! group; any other type fails to compile (see [`Field`]).

/// One field of a counter table, seen through a shared reference.
#[derive(Clone, Copy)]
pub enum Node<'a> {
    /// A `u64` counter.
    Leaf(u64),
    /// A `[u64; N]` counter array.
    Array(&'a [u64]),
    /// A nested table-declared group.
    Group(&'a dyn Counters),
}

/// One field of a counter table, seen through a mutable reference.
pub enum NodeMut<'a> {
    /// A `u64` counter.
    Leaf(&'a mut u64),
    /// A `[u64; N]` counter array.
    Array(&'a mut [u64]),
    /// A nested table-declared group.
    Group(&'a mut dyn Counters),
}

/// A struct declared through [`counters!`](crate::counters).
pub trait Counters {
    /// Calls `f` with each field's name and value, in declaration order.
    fn visit(&self, f: &mut dyn FnMut(&'static str, Node<'_>));

    /// Calls `f` with each field's name and a mutable reference to it,
    /// in declaration order.
    fn visit_mut(&mut self, f: &mut dyn FnMut(&'static str, NodeMut<'_>));
}

/// The field types a counter table accepts: `u64`, `[u64; N]`, and the
/// groups [`counters!`](crate::counters) declares. Any narrower or
/// signed width has no impl, so a counter that could wrap in a long run
/// does not compile.
#[diagnostic::on_unimplemented(
    message = "`{Self}` is not a counter type",
    label = "a `counters!` field must be `u64`, `[u64; N]` or a table-declared group"
)]
pub trait Field {
    /// This field as a visitor node.
    fn node(&self) -> Node<'_>;

    /// This field as a mutable visitor node.
    fn node_mut(&mut self) -> NodeMut<'_>;
}

impl Field for u64 {
    fn node(&self) -> Node<'_> {
        Node::Leaf(*self)
    }

    fn node_mut(&mut self) -> NodeMut<'_> {
        NodeMut::Leaf(self)
    }
}

impl<const N: usize> Field for [u64; N] {
    fn node(&self) -> Node<'_> {
        Node::Array(self)
    }

    fn node_mut(&mut self) -> NodeMut<'_> {
        NodeMut::Array(self)
    }
}

/// Declares counter structs: the struct itself, a [`Counters`] impl
/// that walks its fields in declaration order, and a [`Field`] impl so
/// it can nest as a group inside another table.
///
/// # Examples
///
/// ```
/// use vpir_stats::{Counters, Node};
///
/// vpir_stats::counters! {
///     /// Port counters.
///     #[derive(Debug, Default)]
///     pub struct PortStats {
///         /// Requests seen.
///         pub requests: u64,
///         /// Requests by priority class.
///         pub by_class: [u64; 2],
///     }
///
///     /// A run's counters.
///     #[derive(Debug, Default)]
///     pub struct RunStats {
///         /// Cycles simulated.
///         pub cycles: u64,
///         /// The data port.
///         pub port: PortStats,
///     }
/// }
///
/// let s = RunStats { cycles: 7, ..RunStats::default() };
/// let mut names = Vec::new();
/// s.visit(&mut |name, node| {
///     names.push(name);
///     if let Node::Leaf(v) = node {
///         assert_eq!(v, 7);
///     }
/// });
/// assert_eq!(names, ["cycles", "port"]);
/// ```
///
/// A counter narrower than `u64` would wrap silently in a long
/// release-mode run, so it does not compile:
///
/// ```compile_fail,E0277
/// vpir_stats::counters! {
///     /// Counters with a narrow field.
///     #[derive(Default)]
///     pub struct NarrowStats {
///         /// Wraps after 2^32 events.
///         pub events: u32,
///     }
/// }
/// ```
#[macro_export]
macro_rules! counters {
    ($(
        $(#[$attr:meta])*
        pub struct $name:ident {
            $(
                $(#[$field_attr:meta])*
                pub $field:ident: $ty:ty
            ),* $(,)?
        }
    )*) => {$(
        $(#[$attr])*
        pub struct $name {
            $(
                $(#[$field_attr])*
                pub $field: $ty,
            )*
        }

        impl $crate::Counters for $name {
            fn visit(&self, f: &mut dyn FnMut(&'static str, $crate::Node<'_>)) {
                $(f(stringify!($field), <$ty as $crate::Field>::node(&self.$field));)*
            }

            fn visit_mut(&mut self, f: &mut dyn FnMut(&'static str, $crate::NodeMut<'_>)) {
                $(f(stringify!($field), <$ty as $crate::Field>::node_mut(&mut self.$field));)*
            }
        }

        impl $crate::Field for $name {
            fn node(&self) -> $crate::Node<'_> {
                $crate::Node::Group(self)
            }

            fn node_mut(&mut self) -> $crate::NodeMut<'_> {
                $crate::NodeMut::Group(self)
            }
        }
    )*};
}
