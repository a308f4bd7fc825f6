//! Tab. 2: implementation size of this reimplementation, per component
//! (counts non-blank, non-comment-only lines in the `src` tree of every
//! workspace crate).
use std::fs;
use std::path::Path;

fn count_dir(p: &Path) -> usize {
    let mut n = 0;
    if let Ok(entries) = fs::read_dir(p) {
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                n += count_dir(&path);
            } else if path.extension().map(|x| x == "rs").unwrap_or(false) {
                if let Ok(content) = fs::read_to_string(&path) {
                    n += content
                        .lines()
                        .filter(|l| {
                            let t = l.trim();
                            !t.is_empty() && !t.starts_with("//")
                        })
                        .count();
                }
            }
        }
    }
    n
}

fn main() {
    println!("# Table 2: lines of code per component (this Rust reimplementation)");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    // Every workspace member lives in its own directory under `crates/`.
    let mut crates: Vec<String> = fs::read_dir(root)
        .expect("read crates directory")
        .flatten()
        .filter(|e| e.path().join("Cargo.toml").is_file())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    crates.sort();
    let mut total = 0;
    for crate_dir in &crates {
        let n = count_dir(&root.join(crate_dir).join("src"));
        total += n;
        println!("{:<12} {:>8}", crate_dir, n);
    }
    println!("{:<12} {:>8}", "total", total);
}
