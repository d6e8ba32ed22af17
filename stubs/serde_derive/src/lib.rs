//! Empty placeholder for the retired `serde_derive` stand-in: nothing in the workspace derives `Serialize`, and the crate stays only until the manifests that name it drop it.
