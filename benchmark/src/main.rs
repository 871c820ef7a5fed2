use std::process::ExitCode;

fn main() -> ExitCode {
    ExitCode::from(holobench::run::main(std::env::args().skip(1)))
}
