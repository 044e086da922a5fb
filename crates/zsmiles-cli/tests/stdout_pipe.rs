//! A `zsmiles` command whose stdout reader hangs up early, as `head`
//! does, ends quietly with status 0 instead of panicking on the closed
//! pipe.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn screen_into_a_closed_pipe_exits_quietly() {
    let dir = std::env::temp_dir().join(format!("zsmiles_stdout_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let deck = dir.join("deck.smi");
    let gen = Command::new(env!("CARGO_BIN_EXE_zsmiles"))
        .args([
            "gen",
            "--profile",
            "mixed",
            "-n",
            "5000",
            "--seed",
            "3",
            "-o",
        ])
        .arg(&deck)
        .output()
        .unwrap();
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );

    // 5000 ranked lines are several times a pipe buffer, so the command
    // is still writing when the reader goes.
    let mut screen = Command::new(env!("CARGO_BIN_EXE_zsmiles"))
        .args(["screen", "--top", "5000", "-i"])
        .arg(&deck)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(screen.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("screened 5000 ligands"), "{first}");
    let out = screen.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
