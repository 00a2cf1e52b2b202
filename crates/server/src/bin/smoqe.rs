//! `smoqe` — a command-line front end to the engine.
//!
//! The 2006 demo drove SMOQE through the iSMOQE GUI; this CLI covers the
//! same demonstration flows non-interactively, now on top of the
//! multi-tenant catalog API:
//!
//! ```text
//! smoqe derive   --dtd D.dtd --policy P.pol            # Fig. 3: show sigma + view DTD
//! smoqe query    --dtd D.dtd --doc T.xml [--policy P.pol] [--stream] [--tax]
//!                [--threads N] [--repeat N]
//!                [--cache-stats] [--explain] [--batch FILE] QUERY
//! smoqe explain  --dtd D.dtd [--policy P.pol] QUERY    # rewritten MFA listing
//! smoqe trace    --dtd D.dtd --doc T.xml [--policy P.pol] QUERY   # Fig. 5 trace
//! smoqe index    --doc T.xml --out T.tax               # build + persist TAX
//! smoqe generate --dtd D.dtd --nodes N --seed S        # synthetic document on stdout
//! smoqe update   --dtd D.dtd --doc T.xml [--policy P.pol] [--out FILE]
//!                [--batch FILE | STATEMENT...]         # policy-checked mutations
//! smoqe bench-traffic [--addr HOST:PORT] [--sessions N] [--requests N]
//!                [--workers N] [--seed S] [--deadline-ms N]
//!                [--admin-token T]                     # drive mixed load at a server
//! ```
//!
//! `--repeat N` re-runs the query N times: every run after the first hits
//! the shared plan cache, and `--cache-stats` prints the engine's
//! hit/miss/invalidation/eviction counters afterwards — plus the
//! execution mode each query actually ran in (`scan` vs `jump`), so the
//! engine's per-query pick is observable.
//!
//! `--tax` builds the TAX index after loading the document; with it the
//! engine prunes subtrees and jumps through the positional label index on
//! selective queries (visiting only candidate subtrees), scanning
//! otherwise. `--threads N` answers DOM-mode batches on N worker threads
//! over one shared snapshot.
//!
//! `--explain` prints, per query, the execution mode the engine picked,
//! the statistics-based selectivity estimate (or the reason none exists),
//! and the candidate source lists a jump scan would probe from the
//! document root — full label occurrence lists, narrowed (label, value)
//! posting lists, or child-witness postings.
//!
//! `--batch FILE` answers every query listed in FILE (one Regular XPath
//! query per line, `#` comments and blank lines skipped) against **one
//! snapshot** of the document — on the tree in DOM mode, in one shared
//! sequential scan (reporting the shared event count) with `--stream`;
//! the positional QUERY argument is not needed then.
//!
//! `bench-traffic` is the serving layer's load generator: it drives
//! `--sessions` concurrent TCP connections (alternating admin and view
//! principals) of mixed single-query / shared-scan-batch / update traffic
//! against `--addr`, or — without `--addr` — against a freshly started
//! in-process server preloaded with the hospital sample. It reports
//! p50/p95/p99 latency, QPS, the admission-control refusal counts
//! (overall and per tenant), and the server's robustness counters for
//! the run: deadline sheds, mid-scan abandons, cancellations, brownout
//! refusals and the in-flight gauge (see `smoqe-server serve` for the
//! server side). `--deadline-ms N` arms every request with a caller
//! deadline so the shed/abandon paths see load too.
//!
//! `update` applies `insert <f> into|before|after p` / `delete p` /
//! `replace p with <f>` statements. With `--policy` the statements run as
//! a *group* session: targets resolve against the security view and a
//! denied write is indistinguishable from a write to a non-existent node.
//! Several positional statements (or a `--batch` file of statements)
//! apply transactionally, and the updated document goes to stdout (or
//! `--out FILE`).

use smoqe::{DocHandle, DocumentMode, Engine, EngineConfig, ExecMode, User};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal argument scanner: `--flag value` pairs, bare words are
/// positional.
struct Args {
    flags: std::collections::HashMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn parse_args(raw: &[String]) -> Args {
    let mut flags = std::collections::HashMap::new();
    let mut switches = Vec::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        let a = &raw[i];
        if let Some(name) = a.strip_prefix("--") {
            // Switches without values.
            if matches!(
                name,
                "stream" | "tax" | "dot" | "cache-stats" | "explain" | "shutdown"
            ) {
                switches.push(name.to_string());
                i += 1;
            } else if i + 1 < raw.len() {
                flags.insert(name.to_string(), raw[i + 1].clone());
                i += 2;
            } else {
                switches.push(name.to_string());
                i += 1;
            }
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Args {
        flags,
        switches,
        positional,
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        print_usage();
        return Ok(());
    };
    let args = parse_args(&raw[1..]);
    match cmd.as_str() {
        "derive" => cmd_derive(&args),
        "query" => cmd_query(&args),
        "update" => cmd_update(&args),
        "explain" => cmd_explain(&args),
        "trace" => cmd_trace(&args),
        "index" => cmd_index(&args),
        "generate" => cmd_generate(&args),
        "bench-traffic" => cmd_bench_traffic(&args),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try `smoqe help`)").into()),
    }
}

fn print_usage() {
    eprintln!(
        "smoqe - the Secure MOdular Query Engine (VLDB'06 reproduction)\n\
         \n\
         commands:\n\
           derive   --dtd FILE --policy FILE                 derive the security view (Fig. 3)\n\
           query    --dtd FILE --doc FILE [--policy FILE]\n\
                    [--stream] [--tax] [--threads N]\n\
                    [--repeat N] [--cache-stats] [--explain]\n\
                    [--batch FILE | QUERY]                   answer one query, or a whole\n\
                                                             batch file on one snapshot\n\
                                                             (N DOM workers, or a single\n\
                                                             scan with --stream)\n\
           explain  --dtd FILE [--policy FILE] QUERY         show the (rewritten) MFA\n\
           trace    --dtd FILE --doc FILE [--policy FILE] Q  annotated evaluation trace (Fig. 5)\n\
           index    --doc FILE --out FILE                    build + persist the TAX index\n\
           generate --dtd FILE [--nodes N] [--seed S]        emit a synthetic document\n\
           update   --dtd FILE --doc FILE [--policy FILE]\n\
                    [--out FILE] [--batch FILE | STMT...]    apply policy-checked updates\n\
                                                             (insert/delete/replace) and\n\
                                                             emit the updated document\n\
           bench-traffic [--addr HOST:PORT] [--sessions N]\n\
                    [--requests N] [--workers N] [--seed S]\n\
                    [--deadline-ms N]\n\
                    [--admin-token T] [--shutdown]           drive concurrent mixed load at a\n\
                                                             smoqe-server (or a self-hosted\n\
                                                             one) and report latency/QPS;\n\
                                                             --admin-token authenticates the\n\
                                                             admin sessions against a remote\n\
                                                             server started with one;\n\
                                                             --shutdown drains the remote\n\
                                                             server afterwards (admin op)\n\
         \n\
         With --policy, the query runs as a view user (rewritten, access-\n\
         controlled); without it, as an admin directly on the document."
    );
}

fn required<'a>(args: &'a Args, name: &str) -> Result<&'a str, Box<dyn std::error::Error>> {
    args.flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}").into())
}

/// Builds an engine, opens a catalog document named `cli`, loads schema and
/// data into it, and registers the policy group when one is given.
fn build_document(args: &Args) -> Result<(DocHandle, User), Box<dyn std::error::Error>> {
    let mut config = EngineConfig::default();
    if args.switch("stream") {
        config.mode = DocumentMode::Stream;
    }
    if let Some(threads) = args.flags.get("threads") {
        config.eval_threads = threads.parse::<usize>()?.max(1);
    }
    let engine = Engine::new(config);
    let doc = engine.open_document("cli");
    doc.load_dtd(&std::fs::read_to_string(required(args, "dtd")?)?)?;
    if let Some(path) = args.flags.get("doc") {
        doc.load_document_file(path)?;
        if args.switch("tax") {
            doc.build_tax_index()?;
        }
    }
    let user = match args.flags.get("policy") {
        Some(p) => {
            doc.register_policy("cli-group", &std::fs::read_to_string(p)?)?;
            User::Group("cli-group".into())
        }
        None => User::Admin,
    };
    Ok((doc, user))
}

fn the_query(args: &Args) -> Result<&str, Box<dyn std::error::Error>> {
    args.positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| "missing QUERY argument".into())
}

fn cmd_derive(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let vocab = smoqe::xml::Vocabulary::new();
    let dtd = smoqe::xml::Dtd::parse(&std::fs::read_to_string(required(args, "dtd")?)?, &vocab)?;
    let policy = smoqe::view::AccessPolicy::parse(
        dtd.clone(),
        &std::fs::read_to_string(required(args, "policy")?)?,
    )?;
    println!("--- policy ---\n{}", policy.to_policy_string());
    let spec = smoqe::view::derive(&policy);
    spec.validate(&dtd)?;
    println!("--- derived view ---\n{}", spec.to_spec_string());
    Ok(())
}

fn print_cache_stats(doc: &DocHandle) {
    let m = doc.engine().cache_metrics();
    eprintln!(
        "plan cache: {} hit(s), {} miss(es), {} invalidation(s), {} eviction(s), {} resident ({}% hit rate)",
        m.hits,
        m.misses,
        m.invalidations,
        m.evictions,
        m.entries,
        (m.hit_rate() * 100.0).round(),
    );
    for (tenant, t) in doc.engine().tenant_metrics() {
        eprintln!(
            "tenant {tenant}: {} quer{} ({} batch(es)), {} answer(s), {} node(s) visited, \
             {} update(s) ({} denied), {} error(s)",
            t.queries,
            if t.queries == 1 { "y" } else { "ies" },
            t.batches,
            t.answers,
            t.nodes_visited,
            t.updates,
            t.update_denials,
            t.errors,
        );
    }
}

/// Reads a batch file: one query/statement per line, `#` comments and
/// blank lines skipped.
fn read_batch_lines(path: &str) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    Ok(std::fs::read_to_string(path)?
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect())
}

fn repeat_count(args: &Args) -> Result<usize, Box<dyn std::error::Error>> {
    Ok(args
        .flags
        .get("repeat")
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(1)
        .max(1))
}

/// Short display name of the execution mode a plan actually ran in.
fn mode_name(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Compiled => "scan",
        ExecMode::Jump => "jump",
    }
}

/// `--explain`: the mode the engine picked for this query, the
/// statistics-based selectivity estimate (or why none exists), and the
/// candidate source lists a jump scan would probe from the document root.
fn print_explain(
    doc: &DocHandle,
    user: &User,
    query: &str,
    mode: ExecMode,
) -> Result<(), Box<dyn std::error::Error>> {
    use smoqe_hype::{
        selectivity_estimate, start_region_triggers, SelectivityEstimate, TriggerKind,
    };
    let mfa = doc.plan(user, query)?;
    let plan = smoqe_automata::compile::CompiledMfa::compile(&mfa);
    let Ok(tree) = doc.document() else {
        // Stream mode holds no DOM: mode is all there is to report.
        eprintln!(
            "explain `{query}`: mode = {}; no DOM snapshot, no index statistics",
            mode_name(mode)
        );
        return Ok(());
    };
    let tax = doc.tax_index();
    let estimate = match selectivity_estimate(&tree, &plan, tax.as_deref()) {
        SelectivityEstimate::Measured(f) => format!("{:.4}% of nodes", f * 100.0),
        SelectivityEstimate::NoRequiredLabel => {
            "no required label (assumed unselective)".to_string()
        }
        SelectivityEstimate::NoIndex => "no positional index (estimate unavailable)".to_string(),
    };
    eprintln!(
        "explain `{query}`: mode = {}; estimated selectivity = {estimate}",
        mode_name(mode)
    );
    let triggers = start_region_triggers(&tree, &plan, tax.as_deref());
    if triggers.is_empty() {
        eprintln!("  triggers: none (the plan cannot jump from the root)");
    } else {
        let vocab = doc.engine().vocabulary();
        for t in &triggers {
            let kind = match t.kind {
                TriggerKind::Full => "full occurrence list",
                TriggerKind::NarrowedValue => "value posting list",
                TriggerKind::ChildEvidence => "child-witness postings",
            };
            match &t.value {
                Some(v) => eprintln!(
                    "  trigger {} = '{v}': {} entries ({kind})",
                    vocab.name(t.label),
                    t.len
                ),
                None => eprintln!(
                    "  trigger {}: {} entries ({kind})",
                    vocab.name(t.label),
                    t.len
                ),
            }
        }
    }
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (doc, user) = build_document(args)?;
    let session = doc.session(user);
    let repeat = repeat_count(args)?;
    let show_mode = args.switch("cache-stats");
    if let Some(batch_file) = args.flags.get("batch") {
        let lines = read_batch_lines(batch_file)?;
        let queries: Vec<&str> = lines.iter().map(String::as_str).collect();
        // --repeat re-runs the whole batch (each re-run hits the plan
        // cache), same as it re-runs a single query.
        let mut batch = session.query_batch_serialized(&queries)?;
        for _ in 1..repeat {
            batch = session.query_batch_serialized(&queries)?;
        }
        if batch.events > 0 {
            eprintln!(
                "{} quer{} answered in ONE scan ({} parser events)",
                queries.len(),
                if queries.len() == 1 { "y" } else { "ies" },
                batch.events,
            );
        } else {
            let merged = batch.merged_stats();
            eprintln!(
                "{} quer{} answered over one DOM snapshot ({} nodes visited in total)",
                queries.len(),
                if queries.len() == 1 { "y" } else { "ies" },
                merged.nodes_visited,
            );
        }
        for (query, answer) in queries.iter().zip(&batch.answers) {
            eprintln!(
                "  {} answer(s){}{} for `{query}`",
                answer.len(),
                if show_mode {
                    format!(" [{}]", mode_name(answer.mode))
                } else {
                    String::new()
                },
                if answer.plan_cached {
                    " [cached plan]"
                } else {
                    ""
                },
            );
            for xml in answer.xml.iter().flatten() {
                println!("{xml}");
            }
        }
        if args.switch("explain") {
            for (query, answer) in queries.iter().zip(&batch.answers) {
                print_explain(&doc, session.user(), query, answer.mode)?;
            }
        }
        if args.switch("cache-stats") {
            print_cache_stats(&doc);
        }
        return Ok(());
    }
    let query = the_query(args)?;
    let mut answer = session.query(query)?;
    for _ in 1..repeat {
        answer = session.query(query)?;
    }
    eprintln!(
        "{} answer(s); visited {} nodes, |Cans| = {}, pruned {} (dead) + {} (TAX){}{}",
        answer.len(),
        answer.stats.nodes_visited,
        answer.stats.cans_size,
        answer.stats.subtrees_skipped_dead,
        answer.stats.subtrees_pruned_tax,
        if show_mode {
            format!("; mode = {}", mode_name(answer.mode))
        } else {
            String::new()
        },
        if answer.plan_cached {
            "; plan from cache"
        } else {
            ""
        },
    );
    for xml in session.query_xml(query)? {
        println!("{xml}");
    }
    if args.switch("explain") {
        print_explain(&doc, session.user(), query, answer.mode)?;
    }
    if args.switch("cache-stats") {
        print_cache_stats(&doc);
    }
    Ok(())
}

fn cmd_update(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (doc, user) = build_document(args)?;
    let statements: Vec<String> = match args.flags.get("batch") {
        Some(batch_file) => read_batch_lines(batch_file)?,
        None => args.positional.clone(),
    };
    if statements.is_empty() {
        return Err("no update statements (positional or --batch FILE)".into());
    }
    // One transaction regardless of principal: a group batch goes through
    // Session::update_batch, so a later denial installs nothing.
    let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
    let reports = match &user {
        User::Admin => doc.update_batch(&refs)?,
        User::Group(_) => doc.session(user.clone()).update_batch(&refs)?,
    };
    for (stmt, report) in statements.iter().zip(&reports) {
        eprintln!(
            "applied at {} target(s) ({} -> {} nodes{}): {stmt}",
            report.applied,
            report.nodes_before,
            report.nodes_after,
            if report.tax_patched {
                ", TAX patched"
            } else {
                ""
            },
        );
    }
    let xml = doc.document()?.to_xml();
    match args.flags.get("out") {
        Some(path) => std::fs::write(path, xml.as_bytes())?,
        None => println!("{xml}"),
    }
    if args.switch("cache-stats") {
        print_cache_stats(&doc);
    }
    Ok(())
}

fn cmd_explain(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (doc, user) = build_document(args)?;
    let mfa = doc.plan(&user, the_query(args)?)?;
    if args.switch("dot") {
        println!("{}", smoqe::viz::mfa_to_dot(&mfa));
    } else {
        println!("{}", smoqe::viz::mfa_listing(&mfa));
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let (doc, user) = build_document(args)?;
    let session = doc.session(user);
    let mut trace = smoqe::viz::TraceCollector::new();
    let answer = session.query_observed(the_query(args)?, &mut trace)?;
    let tree = doc.document()?;
    println!("{}", smoqe::viz::annotated_tree(&tree, &trace));
    eprintln!("{} answer(s)", answer.len());
    Ok(())
}

fn cmd_index(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let vocab = smoqe::xml::Vocabulary::new();
    let doc = smoqe::xml::parse_file(required(args, "doc")?, &vocab)?;
    let tax = smoqe::tax::TaxIndex::build(&doc);
    let out = required(args, "out")?;
    tax.save_to_file(out, &vocab)?;
    eprintln!(
        "indexed {} nodes: {} distinct type sets, {} bytes on disk",
        tax.node_count(),
        tax.distinct_sets(),
        std::fs::metadata(out)?.len()
    );
    eprintln!("document: {}", doc.memory_summary());
    eprintln!("index:    {}", tax.summary(&vocab));
    Ok(())
}

fn parsed_flag<T: std::str::FromStr>(
    args: &Args,
    name: &str,
    default: T,
) -> Result<T, Box<dyn std::error::Error>>
where
    T::Err: std::error::Error + 'static,
{
    match args.flags.get(name) {
        Some(s) => Ok(s.parse()?),
        None => Ok(default),
    }
}

fn cmd_bench_traffic(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    use smoqe_server::{run_traffic, Server, ServerConfig, TrafficConfig};

    let sessions: usize = parsed_flag(args, "sessions", 64)?;
    let requests: usize = parsed_flag(args, "requests", 50)?;

    // Without --addr, self-host: fresh engine, hospital sample, ephemeral
    // port — a one-command demo of the whole serving stack.
    let (addr, hosted) = match args.flags.get("addr") {
        Some(addr) => (addr.clone(), None),
        None => {
            let engine = Engine::with_defaults();
            let doc = engine.open_document("wards");
            smoqe::workloads::hospital::install_sample(&doc)?;
            let defaults = ServerConfig::default();
            let config = ServerConfig {
                workers: parsed_flag(args, "workers", defaults.workers)?,
                queue_capacity: parsed_flag(args, "queue", defaults.queue_capacity)?,
                ..defaults
            };
            let handle = Server::start(engine, config)?;
            eprintln!("self-hosted smoqe-server on {}", handle.local_addr());
            (handle.local_addr().to_string(), Some(handle))
        }
    };

    let mut config = TrafficConfig::hospital(addr, sessions, requests);
    if let Some(document) = args.flags.get("document") {
        config.document = document.clone();
    }
    config.seed = parsed_flag(args, "seed", config.seed)?;
    // Needed against a remote server that was started with an admin
    // token (self-hosted and loopback servers accept admins without one).
    config.admin_token = args.flags.get("admin-token").cloned();
    // `--deadline-ms N` arms every request with a caller deadline, so
    // the run also exercises the shed/abandon machinery under load.
    if let Some(ms) = args.flags.get("deadline-ms") {
        config.deadline = Some(std::time::Duration::from_millis(ms.parse()?));
    }

    let report = run_traffic(&config)?;
    println!(
        "{} session(s) x {} request(s): {} ok, {} busy (of which {} starved), \
         {} engine error(s), {} protocol error(s)",
        sessions,
        requests,
        report.ok,
        report.busy,
        report.starved,
        report.errors,
        report.protocol_errors,
    );
    println!(
        "latency p50 {}us  p95 {}us  p99 {}us  mean {}us  |  {:.0} req/s over {:.2}s",
        report.overall.p50_us,
        report.overall.p95_us,
        report.overall.p99_us,
        report.overall.mean_us,
        report.qps,
        report.elapsed.as_secs_f64(),
    );
    for (tenant, s) in &report.per_tenant {
        println!(
            "  tenant {tenant}: {} ok, p50 {}us, p95 {}us, p99 {}us",
            s.count, s.p50_us, s.p95_us, s.p99_us
        );
    }

    // The server-side robustness counters for the run (the serving
    // analog of `--cache-stats`): what was shed with an expired
    // deadline, abandoned mid-scan, cancelled by a vanished client or
    // refused by brownout — plus the `inflight` gauge, which must read
    // 0 on a drained server.
    {
        let mut admin = smoqe_server::Client::connect(&config.addr)?;
        admin.hello_auth(
            &config.document,
            smoqe_server::Principal::Admin,
            config.admin_token.as_deref(),
        )?;
        let s = admin.stats(false)?;
        println!(
            "server: {} shed, {} deadline-expired mid-scan, {} cancelled, \
             {} brownout-refused, {} busy, {} slow-client drop(s), {} inflight",
            s.shed_total,
            s.deadline_total,
            s.cancelled_total,
            s.overloaded_total,
            s.busy_total,
            s.slow_client_drops,
            s.inflight,
        );
    }

    match hosted {
        Some(handle) => {
            handle.shutdown();
            handle.join();
        }
        // `--shutdown` drains a remote server over the wire once the run
        // is done (CI boots `smoqe-server serve` and stops it this way).
        None if args.switch("shutdown") => {
            let mut admin = smoqe_server::Client::connect(&config.addr)?;
            admin.hello_auth(
                &config.document,
                smoqe_server::Principal::Admin,
                config.admin_token.as_deref(),
            )?;
            admin.shutdown()?;
        }
        None => {}
    }
    if report.protocol_errors > 0 {
        return Err(format!(
            "{} protocol error(s) during the run",
            report.protocol_errors
        )
        .into());
    }
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let vocab = smoqe::xml::Vocabulary::new();
    let dtd = smoqe::xml::Dtd::parse(&std::fs::read_to_string(required(args, "dtd")?)?, &vocab)?;
    let nodes: usize = args
        .flags
        .get("nodes")
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(10_000);
    let seed: u64 = args
        .flags
        .get("seed")
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(42);
    let config = smoqe::xml::GeneratorConfig::sized(seed, nodes);
    let stdout = std::io::stdout();
    let emitted =
        smoqe::xml::generate_to_writer(&dtd, &config, std::io::BufWriter::new(stdout.lock()))?;
    eprintln!("generated {emitted} nodes");
    Ok(())
}
