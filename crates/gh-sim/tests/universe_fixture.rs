//! Pins the benchmark-scale universes byte for byte.
//!
//! Every build pass scrapes a universe that `Universe::generate` makes from
//! its config, and the benchmark checks each pass against a reference built
//! by the same generator, so a generator change that alters the universe
//! would go unseen there. This fixture stores, per universe, its config, its
//! `UniverseStats` and a 64-bit FNV-1a over every repository's metadata and
//! every file's path, kind and content, in order. The universes are the
//! 1,000-repository build universes (with and without planted duplicates) at
//! seeds 1–3, and the 1,500-repository universe the eval workload trains on.
//!
//! Regenerate with `FFH_REGEN_FIXTURES=1 cargo test`.

use std::fmt::Write as _;

use gh_sim::{Universe, UniverseConfig};

/// 64-bit FNV-1a over a sequence of fields, each closed by a `0xFF` byte,
/// which never occurs in UTF-8 text.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn field(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xFF]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(universe: &Universe) -> u64 {
    let mut h = Fnv1a::new();
    for repo in universe.repositories() {
        h.field(&repo.id.to_le_bytes());
        h.field(repo.full_name.as_bytes());
        h.field(repo.owner.as_bytes());
        h.field(&repo.created_year.to_le_bytes());
        h.field(format!("{:?}", repo.license).as_bytes());
        h.field(&repo.stars.to_le_bytes());
        for file in &repo.files {
            h.field(file.path.as_bytes());
            h.field(format!("{:?}", file.kind).as_bytes());
            h.field(file.content.as_bytes());
        }
    }
    h.0
}

fn check_snapshot(rel: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var_os("FFH_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with FFH_REGEN_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "a generated universe diverged from its pinned digest ({rel}); if the \
         change is intentional, regenerate with FFH_REGEN_FIXTURES=1"
    );
}

#[test]
fn benchmark_universes_match_pinned_digests() {
    let mut configs = Vec::new();
    for seed in 1..=3 {
        for duplicate_fraction in [0.0, 0.58] {
            configs.push(UniverseConfig {
                repo_count: 1_000,
                seed,
                duplicate_fraction,
            });
        }
    }
    configs.push(UniverseConfig {
        repo_count: 1_500,
        seed: 0xF5EE,
        duplicate_fraction: 0.58,
    });

    let mut out = String::new();
    for config in &configs {
        let universe = Universe::generate(config);
        writeln!(
            out,
            "{config:?} {:?} fnv1a={:016x}",
            universe.stats(),
            digest(&universe)
        )
        .unwrap();
    }
    check_snapshot("tests/fixtures/universe_digest.txt", &out);
}
