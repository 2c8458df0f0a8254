//! The `xia` binary: thin wrapper over [`xia_cli::run`].
//!
//! Exit codes: 0 success, 2 usage error, 3 bad input, 4 corrupt database,
//! 5 internal failure, 6 deadline/cancel partial result. Error context
//! chains print one line per cause.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match xia_cli::run(&args) {
        Ok(output) => {
            print!("{output}");
            if output.code != 0 {
                std::process::exit(output.code);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
