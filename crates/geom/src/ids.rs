//! Index newtypes for the EDA databases.
//!
//! Every database in the stack (netlists, placements, circuits) stores its
//! objects in `Vec`s and refers to them by dense `u32` indices. The
//! [`define_id!`](crate::define_id) macro stamps out a newtype per object
//! class so a `CellId` can never be used to index nets (C-NEWTYPE).
//!
//! # Examples
//!
//! ```
//! geom::define_id!(
//!     /// Identifies a widget in a widget store.
//!     pub struct WidgetId
//! );
//!
//! let w = WidgetId::new(3);
//! assert_eq!(w.index(), 3);
//! assert_eq!(w.to_string(), "WidgetId(3)");
//! ```

/// Narrows a dense vector index to the `u32` an id stores; every id type
/// that [`define_id!`](crate::define_id) stamps out builds through it.
///
/// # Panics
///
/// Panics if `index` does not fit in `u32`.
#[inline]
#[expect(
    clippy::expect_used,
    reason = "unreachable in practice: every caller passes the length of a Vec it is about to push to or an index below it, and 2^32 objects of any id-indexed kind exceed 16 GiB, so allocation fails long before an index can overflow u32"
)]
pub fn dense_index(index: usize) -> u32 {
    u32::try_from(index).expect("id index overflows u32")
}

/// Defines a `u32`-backed dense index newtype with the common trait set.
///
/// The generated type implements `Debug`, `Display`, `Clone`, `Copy`,
/// equality, ordering and hashing, plus `new`/`index` accessors and
/// `From<u32>`.
#[macro_export]
macro_rules! define_id {
    ($(#[$meta:meta])* pub struct $name:ident) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
            serde::Serialize, serde::Deserialize,
        )]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a dense vector index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in `u32`.
            pub fn new(index: usize) -> Self {
                $name($crate::ids::dense_index(index))
            }

            /// The dense vector index this id refers to.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                $name(raw)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    define_id!(
        /// Test-only id.
        pub struct TestId
    );

    #[test]
    fn roundtrips_index() {
        let id = TestId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(TestId::from(42u32), id);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(TestId::new(1) < TestId::new(2));
    }

    #[test]
    fn works_in_function_scope() {
        define_id!(
            /// Id declared inside a function.
            pub struct LocalId
        );
        assert_eq!(LocalId::new(0).index(), 0);
    }
}
