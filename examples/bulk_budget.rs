//! Stage budget of one cold sealed bootstrap's bulk path, over the public
//! API: what the server spends building the `OFFER_FILE` reply (the offer,
//! then the sealed file behind it) and what the client spends from that
//! frame to a depot entry, each stage timed alone
//! (fastest of N) and the five summed — the figure a `cold_fetch` step in
//! drvbench is made of, less the simulator and the VM load. The depot
//! records the image and cuts it into chunks only when a delta first asks,
//! so below the sum comes the boundary scan that first delta pays, and one
//! digest pass for scale. Prints; gates nothing (wall-clock on a shared
//! box).
//!
//! Run with: `cargo run --release --example bulk_budget [-- <package bytes> <reps>]`

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use drivolution::core::chunk::{cut_points, ChunkingParams};
use drivolution::core::pack::{pack_driver_padded, unpack_driver};
use drivolution::core::{
    fnv1a64, transfer, BinaryFormat, Certificate, ChannelTrust, Digested, DriverId, DriverImage,
    DriverVersion, DrvMsg, DrvOffer, ExpirationPolicy, RenewPolicy, TransferMethod,
};
use drivolution::prelude::DriverDepot;

/// Fastest of `reps` runs of `stage` in µs, each on a fresh `setup()` that
/// is built (and whose result is dropped) outside the timed part.
fn fastest<S, T>(reps: usize, mut setup: impl FnMut() -> S, mut stage: impl FnMut(S) -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            let out = black_box(stage(black_box(input)));
            let us = t.elapsed().as_secs_f64() * 1e6;
            drop(out);
            us
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<usize>());
    let padding = args.next().and_then(Result::ok).unwrap_or(1 << 20);
    let reps = args.next().and_then(Result::ok).unwrap_or(40).max(1);

    let format = BinaryFormat::Djar;
    let image = DriverImage::new("budget-driver", DriverVersion::new(1, 0, 0), 1);
    let package = pack_driver_padded(format, &image, padding);
    let cert = Certificate::issue("db1", 1);
    let mut trust = ChannelTrust::new();
    trust.pin(&cert);
    let sealed = TransferMethod::Sealed;
    // What the server offers a cold client beside the file.
    let offer = DrvOffer {
        driver_id: DriverId(1),
        driver_version: Some(image.version),
        same_driver: false,
        lease_ms: 3_600_000,
        renew_policy: RenewPolicy::Renew,
        expiration_policy: ExpirationPolicy::AfterCommit,
        format,
        location: String::new(),
        size: package.len() as u64,
        transfer_method: sealed,
        options: Vec::new(),
        signature: None,
        content_digest: Some(fnv1a64(&package)),
        chunked: None,
    };
    let frame = || DrvMsg::offer_file_frame(&offer, &package, Some(&cert)).expect("seals");
    // A private copy per run where a stage may take its input apart.
    let copy = || Bytes::from(package.to_vec());

    let stages = [
        ("wrap + frame", fastest(reps, || (), |()| frame())),
        (
            "decode + unwrap",
            fastest(reps, frame, |frame| {
                let DrvMsg::OfferFile { payload, .. } = DrvMsg::decode(frame).expect("decodes")
                else {
                    panic!("OFFER_FILE expected");
                };
                transfer::unwrap(sealed, payload, &trust).expect("unseals")
            }),
        ),
        ("Digested::of", fastest(reps, copy, Digested::of)),
        (
            "unpack_driver",
            fastest(reps, copy, |raw| {
                unpack_driver(format, raw).expect("unpacks")
            }),
        ),
        (
            "insert_digested",
            fastest(
                reps,
                || (DriverDepot::in_memory(), Digested::of(copy())),
                |(depot, image)| {
                    depot.insert_digested("orders", image);
                    depot
                },
            ),
        ),
    ];
    let parts = [
        (
            "deferred, paid by the first delta: boundary scan",
            fastest(
                reps,
                || (),
                |()| cut_points(&package, &ChunkingParams::default()),
            ),
        ),
        (
            "for scale: one fnv1a64 pass",
            fastest(reps, || (), |()| fnv1a64(&package)),
        ),
    ];

    // Per MiB so runs at different sizes compare.
    let per_mib = (1 << 20) as f64 / package.len() as f64;
    println!(
        "bulk path of one cold sealed bootstrap: {} B package, fastest of {reps}, µs per MiB",
        package.len()
    );
    for (name, us) in stages {
        println!("{name:<50} {:>9.1}", us * per_mib);
    }
    let sum: f64 = stages.iter().map(|(_, us)| us * per_mib).sum();
    println!("{:<50} {sum:>9.1}", "sum");
    for (name, us) in parts {
        println!("{name:<50} {:>9.1}", us * per_mib);
    }
}
