//! The `dagwave-serve` binary: bind a TCP listener and serve workspaces
//! over the dagwave wire protocol until a client sends `Shutdown`.
//!
//! ```text
//! dagwave-serve [--addr HOST:PORT] [--scenario federated:K | empty:N]
//!               [--span-budget N] [--max-coalesce N]
//! ```
//!
//! Every tenant id gets its own workspace built from the scenario:
//! `federated:K` starts each tenant from the K-component federated
//! instance (`dagwave-gen`), `empty:N` from an N-vertex line DAG with no
//! dipaths. `--span-budget` turns on admission control: a mutation batch
//! that would push any arc's load past the budget is rejected with a
//! typed error instead of applied. One poll(2) reactor thread drives
//! every connection and runs every tenant, so neither costs OS threads.

use std::process::ExitCode;

use dagwave_core::{DecomposePolicy, SolverBuilder, Workspace};
use dagwave_gen::compose::federated;
use dagwave_graph::builder::from_edges;
use dagwave_paths::DipathFamily;
use dagwave_serve::{Server, ServerConfig, WorkspaceFactory};

#[derive(Clone, Debug)]
enum Scenario {
    Federated(usize),
    Empty(usize),
}

struct Args {
    addr: String,
    scenario: Scenario,
    config: ServerConfig,
}

fn parse_args(argv: &[String]) -> Result<Args, Option<String>> {
    // `Err(None)` means help was requested (usage on stdout, exit 0);
    // `Err(Some(msg))` is a real argument error (usage on stderr, exit 2).
    let mut args = Args {
        addr: "127.0.0.1:4617".to_string(),
        scenario: Scenario::Federated(4),
        config: ServerConfig::default(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, Option<String>> {
            it.next()
                .ok_or_else(|| Some(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?.clone(),
            "--scenario" => {
                let spec = value("--scenario")?;
                args.scenario = match spec.split_once(':') {
                    Some(("federated", k)) => Scenario::Federated(
                        k.parse()
                            .map_err(|_| Some(format!("bad federated size {k:?}")))?,
                    ),
                    Some(("empty", n)) => Scenario::Empty(
                        n.parse()
                            .map_err(|_| Some(format!("bad vertex count {n:?}")))?,
                    ),
                    _ => return Err(Some(format!("unknown scenario {spec:?}"))),
                };
            }
            "--span-budget" => {
                let v = value("--span-budget")?;
                args.config.span_budget =
                    Some(v.parse().map_err(|_| Some(format!("bad budget {v:?}")))?);
            }
            "--max-coalesce" => {
                let v = value("--max-coalesce")?;
                args.config.max_coalesce = v
                    .parse()
                    .map_err(|_| Some(format!("bad coalesce cap {v:?}")))?;
            }
            "--help" | "-h" => return Err(None),
            other => return Err(Some(format!("unknown flag {other:?}"))),
        }
    }
    if matches!(args.scenario, Scenario::Empty(n) if n < 2) {
        return Err(Some("empty scenario needs at least 2 vertices".to_string()));
    }
    Ok(args)
}

fn factory_for(scenario: Scenario) -> WorkspaceFactory {
    Box::new(move |_tenant| {
        let session = SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build();
        match &scenario {
            Scenario::Federated(k) => {
                let inst = federated(*k);
                Workspace::new(session, inst.graph, inst.family)
            }
            Scenario::Empty(n) => {
                let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
                Workspace::new(session, from_edges(*n, &edges), DipathFamily::new())
            }
        }
    })
}

const USAGE: &str = "usage: dagwave-serve [--addr HOST:PORT] \
[--scenario federated:K | empty:N] [--span-budget N] [--max-coalesce N]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(Some(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::bind(args.addr.as_str(), factory_for(args.scenario), args.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("dagwave-serve listening on {}", server.local_addr());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: server failed: {e}");
            ExitCode::FAILURE
        }
    }
}
