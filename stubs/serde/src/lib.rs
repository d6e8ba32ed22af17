//! Empty placeholder for the retired `serde` stand-in: nothing in the workspace serialises, and the crate stays only until the manifests that name it drop it.
