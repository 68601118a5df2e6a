//! The Crystalline-L/W aliases under their old crate name. They live in
//! `hyaline`; this crate stays only until `benchmark/` imports them from there.

pub use hyaline::{Crystalline, CrystallineHandle, CrystallineL, CrystallineW};
