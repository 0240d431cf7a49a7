//! `k2` — command-line convoy mining.
//!
//! ```sh
//! k2 generate trucks --out trucks.bin --scale 0.5 --seed 7
//! k2 stats trucks.bin
//! k2 mine trucks.bin --m 3 --k 600 --eps 0.00006 --engine lsmt
//! k2 mine trucks.bin --algo vcoda-star --m 3 --k 600 --eps 0.00006
//! k2 convert trucks.bin trucks.csv
//! ```
//!
//! Movement files are the 24-byte binary record format of
//! `k2_model::codec` (`.csv` extension switches to CSV).

use k2hop::baselines::sweep::SweepMiner;
use k2hop::baselines::{cuts, dcm, spare, vcoda};
use k2hop::core::K2Config;
use k2hop::model::{codec, Dataset};
use k2hop::server::{K2Service, Server};
use k2hop::storage::{
    FlatFileStore, InMemoryStore, LsmConfig, LsmStore, RelationalStore, SharedLsm, SnapshotSource,
};
use k2hop::{MiningSession, PatternKind};
use std::collections::HashMap;
use std::fs::File;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage:
  k2 generate <trucks|tdrive|brinkhoff|inject> --out <file> [--scale F] [--seed N]
  k2 stats <file>
  k2 mine <file> --m N --k N --eps F [--algo A] [--engine E] [--threads N]
          [--pattern P] [--quiet]
  k2 interpolate <in> <out> [--max-gap N]
  k2 convert <in> <out>
  k2 serve [file] --addr HOST:PORT [--dir D] [--workers N]

algorithms (--algo): k2hop (default), vcoda, vcoda-star, cmc, pccd,
                     cuts, spare, dcm
engines    (--engine): memory (default), flat, rdbms, lsmt
patterns   (--pattern, unified algos only): convoy (default), flock
files:     *.csv is CSV (oid,x,y,t); anything else is the binary format
serve:     optional [file] is bulk-loaded first; --dir persists the store
           (default: a temp dir); clients speak the k2-server protocol";

fn run(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or("missing command")?;
    let rest: Vec<&String> = it.collect();
    match cmd.as_str() {
        "generate" => generate(&rest),
        "stats" => stats(&rest),
        "mine" => mine(&rest),
        "interpolate" => interpolate_cmd(&rest),
        "convert" => convert(&rest),
        "serve" => serve(&rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Splits positional args from `--flag value` pairs.
fn parse_flags<'a>(
    args: &[&'a String],
) -> Result<(Vec<&'a str>, HashMap<&'a str, &'a str>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(name) = a.strip_prefix("--") {
            if name == "quiet" {
                flags.insert(name, "true");
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.insert(name, value.as_str());
            i += 2;
        } else {
            positional.push(a);
            i += 1;
        }
    }
    Ok((positional, flags))
}

fn flag_parse<T: std::str::FromStr>(
    flags: &HashMap<&str, &str>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for --{name}: {v}")),
        None => default.ok_or_else(|| format!("missing required flag --{name}")),
    }
}

fn load(path: &str) -> Result<Dataset, String> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".csv") {
        codec::read_csv(file).map_err(|e| format!("{path}: {e}"))
    } else {
        codec::read_binary(file).map_err(|e| format!("{path}: {e}"))
    }
}

fn save(dataset: &Dataset, path: &str) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".csv") {
        codec::write_csv(dataset, file).map_err(|e| format!("{path}: {e}"))
    } else {
        codec::write_binary(dataset, file).map_err(|e| format!("{path}: {e}"))
    }
}

fn generate(args: &[&String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args)?;
    let kind = *pos.first().ok_or("generate: missing dataset kind")?;
    let out: String = flag_parse(&flags, "out", None)?;
    let scale: f64 = flag_parse(&flags, "scale", Some(1.0))?;
    let seed: u64 = flag_parse(&flags, "seed", Some(0))?;
    let dataset = match kind {
        "trucks" => k2hop::datagen::trucks::TrucksConfig::scaled(scale)
            .seed(seed)
            .generate(),
        "tdrive" => k2hop::datagen::tdrive::TDriveConfig::scaled(scale)
            .seed(seed)
            .generate(),
        "brinkhoff" => k2hop::datagen::brinkhoff::BrinkhoffConfig::scaled(scale)
            .seed(seed)
            .generate(),
        "inject" => {
            let objects: u32 = flag_parse(&flags, "objects", Some(200))?;
            let timestamps: u32 = flag_parse(&flags, "timestamps", Some(200))?;
            let convoys: u32 = flag_parse(&flags, "convoys", Some(3))?;
            k2hop::datagen::ConvoyInjector::new(objects, timestamps)
                .convoys(convoys, 4, timestamps / 3)
                .seed(seed)
                .generate()
        }
        other => return Err(format!("unknown dataset kind '{other}'")),
    };
    save(&dataset, &out)?;
    let s = dataset.stats();
    println!(
        "wrote {out}: {} points, {} objects, {} timestamps",
        s.num_points, s.num_objects, s.num_timestamps
    );
    Ok(())
}

fn stats(args: &[&String]) -> Result<(), String> {
    let (pos, _) = parse_flags(args)?;
    let path = *pos.first().ok_or("stats: missing file")?;
    let dataset = load(path)?;
    let s = dataset.stats();
    println!("file            : {path}");
    println!("points          : {}", s.num_points);
    println!("objects         : {}", s.num_objects);
    println!("timestamps      : {}", s.num_timestamps);
    println!("time range      : {}", dataset.span());
    println!("max snapshot    : {}", s.max_snapshot_size);
    println!("avg snapshot    : {:.1}", s.avg_snapshot_size);
    Ok(())
}

fn mine(args: &[&String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args)?;
    let path = *pos.first().ok_or("mine: missing file")?;
    let m: usize = flag_parse(&flags, "m", None)?;
    let k: u32 = flag_parse(&flags, "k", None)?;
    let eps: f64 = flag_parse(&flags, "eps", None)?;
    let algo = flags.get("algo").copied().unwrap_or("k2hop");
    let engine = flags.get("engine").copied().unwrap_or("memory");
    // `--threads` defaults to 4 for the parallel baselines (spare, dcm);
    // k2hop auto-sizes to the machine unless the flag is actually passed.
    let threads_flag: Option<usize> = match flags.get("threads") {
        Some(_) => Some(flag_parse(&flags, "threads", None)?),
        None => None,
    };
    let threads = threads_flag.unwrap_or(4);
    let quiet = flags.contains_key("quiet");

    let pattern = match flags.get("pattern").copied().unwrap_or("convoy") {
        "convoy" => PatternKind::Convoy,
        "flock" => PatternKind::Flock,
        other => return Err(format!("unknown pattern '{other}'")),
    };

    let dataset = load(path)?;

    // The unified algorithms run through one MiningSession over whichever
    // storage engine was requested; the remaining baselines keep their
    // research entry points (in-memory only). A disk engine's bulk load
    // is timed apart from the mine.
    let config = K2Config::new(m, k, eps).map_err(|e| e.to_string())?;
    let session = match algo {
        "k2hop" => {
            let mut session = MiningSession::new(config);
            if let Some(n) = threads_flag {
                session = session.threads(n);
            }
            Some(session)
        }
        "cmc" => Some(MiningSession::new(config).engine(SweepMiner::cmc(config))),
        "pccd" => Some(MiningSession::new(config).engine(SweepMiner::pccd(config))),
        _ => None,
    };
    let mut load = None;
    let start = Instant::now();
    let (convoys, extra, mined) = match session {
        Some(session) => {
            let session = session.pattern(pattern);
            let tmp = std::env::temp_dir().join(format!("k2cli-{}", std::process::id()));
            let store: Option<Box<dyn SnapshotSource>> = match engine {
                "memory" => None,
                "flat" => {
                    std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
                    let store = FlatFileStore::create(tmp.join("data.bin"), &dataset)
                        .map_err(|e| e.to_string())?;
                    Some(Box::new(store))
                }
                "rdbms" => {
                    std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
                    let store = RelationalStore::create(tmp.join("data.k2bt"), &dataset)
                        .map_err(|e| e.to_string())?;
                    Some(Box::new(store))
                }
                "lsmt" => {
                    let store = LsmStore::bulk_load(tmp.join("lsm"), &dataset)
                        .map_err(|e| e.to_string())?;
                    Some(Box::new(store))
                }
                other => return Err(format!("unknown engine '{other}'")),
            };
            let loaded = start.elapsed();
            let outcome = match &store {
                Some(store) => {
                    load = Some(loaded);
                    session.mine(store.as_ref())
                }
                None => session.mine(&dataset),
            }
            .map_err(|e| e.to_string())?;
            let mined = start.elapsed() - loaded;
            drop(store);
            let _ = std::fs::remove_dir_all(&tmp);
            let pruning = &outcome.stats.pruning;
            let extra = if pruning.total_points > 0 {
                format!(
                    ", engine {}, pruned {:.2}% of {} points",
                    outcome.stats.engine,
                    pruning.pruning_ratio() * 100.0,
                    pruning.total_points
                )
            } else {
                // Engines that do not track pruning (flocks) report no
                // counters rather than a fictitious ratio.
                format!(", engine {}", outcome.stats.engine)
            };
            (outcome.convoys, extra, mined)
        }
        None => {
            if pattern != PatternKind::Convoy {
                return Err(format!("--pattern is not supported by --algo {algo}"));
            }
            let store = InMemoryStore::new(dataset);
            let result = match algo {
                "vcoda" => vcoda::vcoda(&store, m, k, eps),
                "vcoda-star" => vcoda::vcoda_star(&store, m, k, eps),
                "cuts" => cuts::mine(&store, m, k, eps, cuts::CutsParams::default()),
                "spare" => spare::mine(&store, m, k, eps, threads),
                "dcm" => dcm::mine(&store, m, k, eps, threads),
                other => return Err(format!("unknown algorithm '{other}'")),
            }
            .map_err(|e| e.to_string())?;
            (
                result.convoys,
                format!(", {} points processed", result.points_processed),
                start.elapsed(),
            )
        }
    };
    let load = load.map_or(String::new(), |d| format!("{engine} load {d:.2?}; "));
    println!(
        "{} convoys in {mined:.2?} ({load}{algo}{extra})",
        convoys.len()
    );
    if !quiet {
        for c in &convoys {
            println!("  {:?} over {} (len {})", c.objects, c.lifespan, c.len());
        }
    }
    Ok(())
}

/// `k2 serve`: bulk-load an optional movement file into an LSM store and
/// serve mine/ingest/stats requests over TCP until killed. Every mine
/// request pins its own MVCC snapshot, so clients mine concurrently with
/// each other and with live `Ingest` traffic.
fn serve(args: &[&String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args)?;
    let addr = flags.get("addr").copied().unwrap_or("127.0.0.1:7878");
    let workers: usize = flag_parse(&flags, "workers", Some(4))?;
    let owned_tmp;
    let dir = match flags.get("dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => {
            owned_tmp = std::env::temp_dir().join(format!("k2serve-{}", std::process::id()));
            owned_tmp
        }
    };
    let store = match pos.first() {
        Some(path) => {
            let dataset = load(path)?;
            println!(
                "loaded {} points over {} timestamps from {path}",
                dataset.num_points(),
                dataset.span().len()
            );
            SharedLsm::bulk_load_with(&dir, &dataset, LsmConfig::default())
        }
        None if dir.join("MANIFEST").exists() => LsmStore::open(&dir).map(SharedLsm::new),
        None => SharedLsm::create_with(&dir, LsmConfig::default()),
    }
    .map_err(|e| e.to_string())?;
    let service = Arc::new(K2Service::new(store));
    let server = Server::bind(addr, service, workers).map_err(|e| e.to_string())?;
    println!(
        "serving on {} with {workers} workers (store: {})",
        server.addr(),
        dir.display()
    );
    // Serve until killed; the accept thread does the work.
    loop {
        std::thread::park();
    }
}

fn interpolate_cmd(args: &[&String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args)?;
    let [input, output] = pos.as_slice() else {
        return Err("interpolate: need <in> <out>".into());
    };
    let max_gap: u32 = flag_parse(&flags, "max-gap", Some(16))?;
    let dataset = load(input)?;
    let before = dataset.num_points();
    let (dense, inserted) = k2hop::model::interpolate::interpolate(&dataset, max_gap);
    save(&dense, output)?;
    println!(
        "interpolated {input} -> {output}: {before} + {inserted} = {} points (max gap {max_gap})",
        dense.num_points()
    );
    Ok(())
}

fn convert(args: &[&String]) -> Result<(), String> {
    let (pos, _) = parse_flags(args)?;
    let [input, output] = pos.as_slice() else {
        return Err("convert: need <in> <out>".into());
    };
    let dataset = load(input)?;
    save(&dataset, output)?;
    println!(
        "converted {input} -> {output} ({} points)",
        dataset.num_points()
    );
    Ok(())
}
