//! `zsmiles` — command-line interface to the ZSMILES toolkit.
//!
//! ```text
//! zsmiles gen        --profile mixed -n 50000 --seed 42 -o deck.smi
//! zsmiles train      -i deck.smi -o deck.dct [--lmin 2 --lmax 8]
//! zsmiles compress   -i deck.smi -d deck.dct -o deck.zsmi [--threads 8]
//! zsmiles decompress -i deck.zsmi -d deck.dct -o back.smi [--postprocess]
//! zsmiles pack       -i deck.smi -d deck.dct -o deck.zsa [--threads 8]
//! zsmiles unpack     -i deck.zsa -o back.smi
//! zsmiles get        -i deck.zsmi -d deck.dct --line 12345
//! zsmiles get        --archive deck.zsa --line 12345
//! zsmiles stats      -i deck.smi
//! ```
//!
//! Argument parsing is hand-rolled (one less dependency; the grammar is
//! trivially flag–value pairs).

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match zsmiles_cli::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        // `zsmiles screen ... | head`: the reader has all it wanted.
        Err(e) if e == zsmiles_cli::commands::STDOUT_CLOSED => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("zsmiles: {e}");
            ExitCode::FAILURE
        }
    }
}
