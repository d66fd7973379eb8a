//! Offline shim of the [`serde`](https://crates.io/crates/serde) API
//! surface used by the Sibyl workspace.
//!
//! No workspace source uses serde: some manifests still list it, and it
//! leaves them with the next re-lock of `benchmark/Cargo.lock`. Until
//! then this shim only has to build offline: the traits are
//! blanket-implemented for all types and the derives (re-exported from
//! the sibling `serde_derive` shim) expand to nothing.

#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::Serialize`; blanket-implemented for all
/// types.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker stand-in for `serde::Deserialize`; blanket-implemented for all
/// types.
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}

/// Marker stand-in for `serde::de::DeserializeOwned`.
pub trait DeserializeOwned {}
impl<T: ?Sized> DeserializeOwned for T {}
