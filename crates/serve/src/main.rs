//! `tsg-serve` — concurrent multi-client SpGEMM serving over JSON lines.
//!
//! By default requests are read from stdin and responses written to stdout,
//! one JSON object per line. With `--tcp ADDR` the same protocol is served
//! over TCP, one session per connection, all connections sharing one engine
//! and one weighted-fair scheduler (and therefore one matrix registry, one
//! device budget, one queue, and one dispatch order). `--workers N` is the
//! number of jobs that run at once; `--timeout-ms N` is the queue-wait
//! deadline of jobs that set no `timeout_ms`. See `tsg_serve::wire` for the
//! session verbs and DESIGN.md §12 for the serving model.
//!
//! ```text
//! tsg-serve [--device 0|1] [--workers N] [--cache-mb N] [--budget-mb N]
//!           [--timeout-ms N] [--profile] [--session-depth N] [--drain-ms N]
//!           [--tcp ADDR]
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    tsg_serve::server::run(tsg_serve::server::parse_args(std::env::args().skip(1)))
}
