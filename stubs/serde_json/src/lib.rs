//! Empty placeholder for the retired `serde_json` stand-in: `freeset::report` renders the two JSON reports, and the crate stays only until the manifests that name it drop it.
