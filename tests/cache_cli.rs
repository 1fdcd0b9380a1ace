//! `implicitc --batch --cache-dir` writes the artifact store only when
//! the session's saved state changed: an exact hit that learns nothing
//! reads the store and leaves every file as it was, also when its
//! programs open scopes that shadow cached derivations; an edit adds one
//! artifact and re-points the configuration head, and a revert points
//! it back; a program that teaches the session a new query is written,
//! and the next run serves that query from the loaded cache.
//!
//! Each prelude text the store has built from gets a `.src` pointer to
//! its artifact, so an unchanged `prelude.imp` is loaded without being
//! parsed: a layout-only edit adds one pointer and no artifact, and a
//! pointer to a missing artifact is counted as a fallback and mended.
//!
//! The bytes a cold build, an incremental rebuild and a revert write
//! are pinned file by file.
#![cfg(unix)]

use std::collections::BTreeMap;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

const IMPLICITC: &str = env!("CARGO_BIN_EXE_implicitc");

/// A small chain prelude around `base`: two rule frames over it.
fn prelude(base: i64) -> String {
    format!(
        "let base : Int = {base} in\n\
         implicit {{base + 2 : Int}} in (\n\
           implicit {{rule ({{Int}} => Int * Int) ((?(Int), ?(Int) + 1)) : {{Int}} => Int * Int}} in (\n\
             implicit {{rule ({{Int * Int}} => (Int * Int) * Int) ((?(Int * Int), base)) : {{Int * Int}} => (Int * Int) * Int}} in\n\
               unit : Unit\n\
           ) : Unit\n\
         ) : Unit\n"
    )
}

/// A fresh batch directory with prelude `base = 40`, two programs and
/// a store directory inside it.
fn batch_dir(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("cache-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("prelude.imp"), prelude(40)).unwrap();
    std::fs::write(dir.join("p1.imp"), "?(Int) + 1\n").unwrap();
    std::fs::write(dir.join("p2.imp"), "snd(?(Int * Int)) + 0\n").unwrap();
    let store = dir.join("store");
    (dir, store)
}

/// One `--jobs 1` batch run; returns stdout after checking success.
fn run(dir: &Path, store: &Path, extra: &[&str]) -> String {
    let out = Command::new(IMPLICITC)
        .arg("--batch")
        .arg(dir)
        .args(["--jobs", "1", "--cache-dir"])
        .arg(store)
        .args(extra)
        .output()
        .expect("run implicitc");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "implicitc failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The `cache:` ladder line of a run.
fn outcome(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("cache: "))
        .expect("a cache line")
}

/// Every store file by name: bytes, inode and modification time.
fn snapshot(store: &Path) -> BTreeMap<String, (Vec<u8>, u64, SystemTime)> {
    std::fs::read_dir(store)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let meta = e.metadata().unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            assert!(!name.contains(".tmp"), "temp file `{name}` left behind");
            let bytes = std::fs::read(e.path()).unwrap();
            (name, (bytes, meta.ino(), meta.modified().unwrap()))
        })
        .collect()
}

fn names_with(store: &Path, ext: &str) -> Vec<String> {
    snapshot(store)
        .into_keys()
        .filter(|n| n.ends_with(ext))
        .collect()
}

/// The key the store's one `.head` file names.
fn head(store: &Path) -> String {
    let heads = names_with(store, ".head");
    assert_eq!(heads.len(), 1, "one configuration: {heads:?}");
    std::fs::read_to_string(store.join(&heads[0]))
        .unwrap()
        .trim()
        .to_owned()
}

/// A `--metrics` counter of a run.
fn metric(stdout: &str, name: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| {
            let rest = l.trim_start().strip_prefix(name)?;
            rest.trim().parse().ok()
        })
        .unwrap_or_else(|| panic!("no `{name}` counter in\n{stdout}"))
}

#[test]
fn an_exact_hit_leaves_the_store_untouched() {
    let (dir, store) = batch_dir("exact");
    let cold = run(&dir, &store, &[]);
    assert!(outcome(&cold).contains("cold=1"), "{cold}");
    let primed = snapshot(&store);
    assert_eq!(
        primed.len(),
        3,
        "one artifact, one head and one source pointer: {primed:?}"
    );
    for ext in [".iart", ".head", ".src"] {
        assert_eq!(names_with(&store, ext).len(), 1, "{ext}: {primed:?}");
    }
    for _ in 0..2 {
        let hit = run(&dir, &store, &[]);
        assert_eq!(
            outcome(&hit),
            "cache: exact=1 incremental=0 cold=0, fallbacks=0"
        );
        assert!(
            snapshot(&store) == primed,
            "an exact hit must not rewrite the store"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_exact_hit_with_a_shadowing_scope_leaves_the_store_untouched() {
    // `examples/batch` plus a program whose rule abstraction shadows
    // the prelude's `Int`: its push shelves the cached derivations
    // that looked `Int` up, its body derives the pair through its own
    // frame, and its pop drops that and puts the shelf back.
    let dir = std::env::temp_dir().join(format!("cache-cli-{}-scoped", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/batch");
    for entry in std::fs::read_dir(examples).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    std::fs::write(
        dir.join("p5_scoped.imp"),
        "rule ({Int} => Int * Int) (?(Int * Int)) with {7 : Int}\n",
    )
    .unwrap();
    // Under `both` the opsem leg's runtime memo learns the scoped
    // program's queries too, keyed by its own frame: not saved, so
    // not written.
    for semantics in ["elab", "both"] {
        let store = dir.join(format!("store-{semantics}"));
        let args = ["--semantics", semantics];
        let cold = run(&dir, &store, &args);
        assert!(outcome(&cold).contains("cold=1"), "{cold}");
        assert!(cold.contains("p5_scoped.imp: (7, 8) : Int * Int"), "{cold}");
        let primed = snapshot(&store);
        let hit = run(&dir, &store, &args);
        assert_eq!(
            outcome(&hit),
            "cache: exact=1 incremental=0 cold=0, fallbacks=0"
        );
        assert!(
            snapshot(&store) == primed,
            "[{semantics}] a scope that only shelves must not rewrite the store"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_layout_only_edit_adds_one_source_pointer_and_no_artifact() {
    let (dir, store) = batch_dir("layout");
    run(&dir, &store, &[]);
    let primed = snapshot(&store);

    let text = format!(
        "-- the same bindings\n{}\n\n",
        prelude(40).replace(" in", "  in")
    );
    std::fs::write(dir.join("prelude.imp"), text).unwrap();
    let moved = run(&dir, &store, &[]);
    assert_eq!(
        outcome(&moved),
        "cache: exact=1 incremental=0 cold=0, fallbacks=0"
    );
    let now = snapshot(&store);
    let added: Vec<&String> = now.keys().filter(|n| !primed.contains_key(*n)).collect();
    assert_eq!(added.len(), 1, "one new file: {added:?}");
    assert!(added[0].ends_with(".src"), "a source pointer: {added:?}");
    for (name, file) in &primed {
        assert!(now[name] == *file, "`{name}` was rewritten");
    }

    let again = run(&dir, &store, &[]);
    assert_eq!(
        outcome(&again),
        "cache: exact=1 incremental=0 cold=0, fallbacks=0"
    );
    assert!(snapshot(&store) == now, "the next run writes nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_source_pointer_to_a_missing_artifact_is_counted_and_mended() {
    let (dir, store) = batch_dir("dangling");
    run(&dir, &store, &[]);
    let pointer = store.join(&names_with(&store, ".src")[0]);
    let key = std::fs::read_to_string(&pointer).unwrap();
    std::fs::write(&pointer, "0123456789abcdef\n").unwrap();

    let fell = run(&dir, &store, &[]);
    assert_eq!(
        outcome(&fell),
        "cache: exact=1 incremental=0 cold=0, fallbacks=1"
    );
    assert_eq!(std::fs::read_to_string(&pointer).unwrap(), key);
    let mended = snapshot(&store);
    let hit = run(&dir, &store, &[]);
    assert_eq!(
        outcome(&hit),
        "cache: exact=1 incremental=0 cold=0, fallbacks=0"
    );
    assert!(snapshot(&store) == mended, "the mended hit writes nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_edit_adds_one_artifact_and_a_revert_points_the_head_back() {
    let (dir, store) = batch_dir("edit");
    run(&dir, &store, &[]);
    let primed = snapshot(&store);
    let old_key = head(&store);

    std::fs::write(dir.join("prelude.imp"), prelude(41)).unwrap();
    let edited = run(&dir, &store, &[]);
    assert!(outcome(&edited).contains("incremental=1"), "{edited}");
    let artifacts = names_with(&store, ".iart");
    assert_eq!(
        artifacts.len(),
        2,
        "exactly one new artifact: {artifacts:?}"
    );
    let new_key = head(&store);
    assert_ne!(new_key, old_key, "the head names the edited prelude");
    assert!(artifacts.contains(&format!("{new_key}.iart")));

    assert_eq!(names_with(&store, ".src").len(), 2, "one pointer per text");
    let edited_store = snapshot(&store);

    // The reverted text is one the store has seen: its source pointer
    // loads the old artifact, and only the head moves.
    std::fs::write(dir.join("prelude.imp"), prelude(40)).unwrap();
    let reverted = run(&dir, &store, &[]);
    assert!(outcome(&reverted).contains("exact=1"), "{reverted}");
    assert_eq!(head(&store), old_key, "the head points back");
    let now = snapshot(&store);
    let old_file = format!("{old_key}.iart");
    assert!(
        now[&old_file] == primed[&old_file],
        "the reverted artifact is read, not rewritten"
    );
    assert_eq!(names_with(&store, ".iart").len(), 2);
    for (name, file) in &edited_store {
        if !name.ends_with(".head") {
            assert!(now.get(name) == Some(file), "`{name}` was rewritten");
        }
    }
    assert_eq!(now.len(), edited_store.len(), "no file was added");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_new_query_is_written_and_then_served_from_the_cache() {
    let (dir, store) = batch_dir("learn");
    run(&dir, &store, &[]);
    let key = head(&store);
    let primed = snapshot(&store);

    // A query the saved artifact has never resolved.
    std::fs::write(
        dir.join("p3.imp"),
        "snd(?((Int * Int) * Int)) + fst(fst(?((Int * Int) * Int)))\n",
    )
    .unwrap();
    let learned = run(&dir, &store, &[]);
    assert!(outcome(&learned).contains("exact=1"), "{learned}");
    assert!(learned.contains("p3.imp: 82 : Int"), "{learned}");
    let file = format!("{key}.iart");
    assert!(
        snapshot(&store)[&file].0 != primed[&file].0,
        "what the run learned is written under the same key"
    );
    assert_eq!(head(&store), key);

    let served = run(&dir, &store, &["--metrics"]);
    assert!(outcome(&served).contains("exact=1"), "{served}");
    assert!(served.contains("p3.imp: 82 : Int"), "{served}");
    assert!(metric(&served, "cache hits") > 0, "{served}");
    assert_eq!(metric(&served, "cache misses"), 0, "{served}");
    assert_eq!(metric(&served, "memo misses"), 0, "{served}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_store_in_the_previous_format_is_rebuilt_once() {
    let (dir, store) = batch_dir("format-1");
    run(&dir, &store, &[]);
    // The artifact stamped with the previous format's version, 1, and
    // its checksum recomputed: only the version check rejects it.
    let iart = store.join(&names_with(&store, ".iart")[0]);
    let mut bytes = std::fs::read(&iart).unwrap();
    let body = bytes.len() - 8;
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    let sum = implicit_core::wire::fnv64(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&iart, &bytes).unwrap();
    let rebuilt = run(&dir, &store, &[]);
    assert_eq!(
        outcome(&rebuilt),
        "cache: exact=0 incremental=0 cold=1, fallbacks=1"
    );
    let version = implicit_pipeline::artifact::FORMAT_VERSION;
    assert_eq!(&std::fs::read(&iart).unwrap()[4..8], &version.to_le_bytes());
    let hit = run(&dir, &store, &[]);
    assert_eq!(
        outcome(&hit),
        "cache: exact=1 incremental=0 cold=0, fallbacks=0"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every store file as `name length fnv64`, one a line, sorted by name.
fn listing(store: &Path) -> String {
    snapshot(store)
        .into_iter()
        .map(|(name, (bytes, _, _))| {
            let sum = implicit_core::wire::fnv64(&bytes);
            format!("{name} {} {sum:016x}\n", bytes.len())
        })
        .collect()
}

/// The store after each step of [`an_edit_sequence_writes_pinned_bytes`]:
/// `name length fnv64` per file, under `--semantics elab` and then
/// `both` (whose artifacts also hold the runtime memo's roots).
const PINNED: [[&str; 5]; 2] = [
    [
        "045fd1be65c7c06d.head 17 126593ee10fb70b4\n\
         bc0a969ae403ec11.iart 1155 144e19ce4481465e\n\
         da31e6ccc9ff89ff.src 17 126593ee10fb70b4\n",
        "045fd1be65c7c06d.head 17 20e521780983edff\n\
         580f09b71dd592ea.src 17 20e521780983edff\n\
         b99676ae485c7c2e.iart 1338 038ceb53ebe03222\n\
         bc0a969ae403ec11.iart 1155 144e19ce4481465e\n\
         da31e6ccc9ff89ff.src 17 126593ee10fb70b4\n",
        "028eb6e04eb941eb.src 17 767a3b68dbaa4dd4\n\
         045fd1be65c7c06d.head 17 767a3b68dbaa4dd4\n\
         580f09b71dd592ea.src 17 20e521780983edff\n\
         a5e27bcef863dfa3.iart 1479 2b8a952162f2e374\n\
         b99676ae485c7c2e.iart 1338 038ceb53ebe03222\n\
         bc0a969ae403ec11.iart 1155 144e19ce4481465e\n\
         da31e6ccc9ff89ff.src 17 126593ee10fb70b4\n",
        "028eb6e04eb941eb.src 17 767a3b68dbaa4dd4\n\
         045fd1be65c7c06d.head 17 126593ee10fb70b4\n\
         580f09b71dd592ea.src 17 20e521780983edff\n\
         a5e27bcef863dfa3.iart 1479 2b8a952162f2e374\n\
         b99676ae485c7c2e.iart 1338 038ceb53ebe03222\n\
         bc0a969ae403ec11.iart 1155 144e19ce4481465e\n\
         da31e6ccc9ff89ff.src 17 126593ee10fb70b4\n",
        "028eb6e04eb941eb.src 17 767a3b68dbaa4dd4\n\
         045fd1be65c7c06d.head 17 126593ee10fb70b4\n\
         580f09b71dd592ea.src 17 20e521780983edff\n\
         a5e27bcef863dfa3.iart 1479 2b8a952162f2e374\n\
         b99676ae485c7c2e.iart 1338 038ceb53ebe03222\n\
         bc0a969ae403ec11.iart 1155 144e19ce4481465e\n\
         da31e6ccc9ff89ff.src 17 126593ee10fb70b4\n",
    ],
    [
        "045fd1be65c7c06d.head 17 126593ee10fb70b4\n\
         bc0a969ae403ec11.iart 1211 018abdabee49246b\n\
         da31e6ccc9ff89ff.src 17 126593ee10fb70b4\n",
        "045fd1be65c7c06d.head 17 20e521780983edff\n\
         580f09b71dd592ea.src 17 20e521780983edff\n\
         b99676ae485c7c2e.iart 1394 7808ef806b943647\n\
         bc0a969ae403ec11.iart 1211 018abdabee49246b\n\
         da31e6ccc9ff89ff.src 17 126593ee10fb70b4\n",
        "028eb6e04eb941eb.src 17 767a3b68dbaa4dd4\n\
         045fd1be65c7c06d.head 17 767a3b68dbaa4dd4\n\
         580f09b71dd592ea.src 17 20e521780983edff\n\
         a5e27bcef863dfa3.iart 1535 a226cf7144e29902\n\
         b99676ae485c7c2e.iart 1394 7808ef806b943647\n\
         bc0a969ae403ec11.iart 1211 018abdabee49246b\n\
         da31e6ccc9ff89ff.src 17 126593ee10fb70b4\n",
        "028eb6e04eb941eb.src 17 767a3b68dbaa4dd4\n\
         045fd1be65c7c06d.head 17 126593ee10fb70b4\n\
         580f09b71dd592ea.src 17 20e521780983edff\n\
         a5e27bcef863dfa3.iart 1535 a226cf7144e29902\n\
         b99676ae485c7c2e.iart 1394 7808ef806b943647\n\
         bc0a969ae403ec11.iart 1211 018abdabee49246b\n\
         da31e6ccc9ff89ff.src 17 126593ee10fb70b4\n",
        "028eb6e04eb941eb.src 17 767a3b68dbaa4dd4\n\
         045fd1be65c7c06d.head 17 126593ee10fb70b4\n\
         580f09b71dd592ea.src 17 20e521780983edff\n\
         a5e27bcef863dfa3.iart 1535 a226cf7144e29902\n\
         b99676ae485c7c2e.iart 1394 7808ef806b943647\n\
         bc0a969ae403ec11.iart 1211 018abdabee49246b\n\
         da31e6ccc9ff89ff.src 17 126593ee10fb70b4\n",
    ],
];

#[test]
fn an_edit_sequence_writes_pinned_bytes() {
    // Cold, a `let` edit, an edit of the first implicit (every implicit
    // reads it, so the whole implicit cone is rebuilt), a revert to a
    // text the store has seen, and an exact hit.
    let steps = [
        (prelude(40), "exact=0 incremental=0 cold=1"),
        (prelude(41), "exact=0 incremental=1 cold=0"),
        (
            prelude(41).replace("base + 2", "base + 3"),
            "exact=0 incremental=1 cold=0",
        ),
        (prelude(40), "exact=1 incremental=0 cold=0"),
        (prelude(40), "exact=1 incremental=0 cold=0"),
    ];
    for (semantics, pinned) in ["elab", "both"].into_iter().zip(PINNED) {
        let (dir, store) = batch_dir(&format!("pinned-{semantics}"));
        for (step, ((text, ladder), want)) in steps.iter().zip(pinned).enumerate() {
            std::fs::write(dir.join("prelude.imp"), text).unwrap();
            let out = run(&dir, &store, &["--semantics", semantics]);
            assert_eq!(
                outcome(&out),
                format!("cache: {ladder}, fallbacks=0"),
                "[{semantics}] step {step}"
            );
            assert_eq!(listing(&store), want, "[{semantics}] step {step}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
