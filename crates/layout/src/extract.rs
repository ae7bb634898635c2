//! Ground-truth extraction from the synthesised placement.
//!
//! Produces exactly the labels the paper predicts (Table I): per-net lumped
//! parasitic capacitance (`CAP`), per-transistor diffusion geometry
//! (`SA`/`DA`/`SP`/`DP`) and eight layout-dependent-effect parameters
//! (`LDE1..8`). A configurable multiplicative log-normal noise models the
//! "inherent layout uncertainty" the paper repeatedly cites; LDE parameters
//! receive the largest noise, which is why their prediction MAPE stays
//! high for every model (paper §V).

use paragraph_netlist::{Circuit, DeviceKind, NetClass, NetId, Terminal};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::placement::{place, LayoutRules, Placement};

/// Number of LDE parameters, as in the paper's Table I.
pub const NUM_LDE: usize = 8;

/// Extraction configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutConfig {
    /// Placement design rules.
    pub rules: LayoutRules,
    /// Seed for the layout-uncertainty noise.
    pub seed: u64,
    /// Log-space sigma on net capacitance (paper: uncertainty >> 1 %).
    pub cap_sigma: f64,
    /// Log-space sigma on diffusion geometry.
    pub geom_sigma: f64,
    /// Log-space sigma scale on LDE parameters (split into a moderate
    /// bulk component and rare heavy floorplan outliers).
    pub lde_sigma: f64,
    /// Wiring capacitance per metre of routed length (F/m).
    pub cap_per_m: f64,
    /// Fixed capacitance per connected pin (contact + via stack), farads.
    pub pin_cap: f64,
    /// Bond-pad capacitance added to ESD-clamped nets, farads.
    pub pad_cap: f64,
    /// Wire sheet resistance per metre of routed length (Ω/m).
    pub res_per_m: f64,
    /// Contact/via stack resistance per pin (Ω).
    pub via_res: f64,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        Self {
            rules: LayoutRules::default(),
            seed: 7,
            cap_sigma: 0.20,
            geom_sigma: 0.08,
            lde_sigma: 0.55,
            cap_per_m: 2.0e-10, // 0.2 fF/µm
            pin_cap: 0.03e-15,
            pad_cap: 0.9e-12,
            res_per_m: 2.0e8, // 0.2 Ω/µm on intermediate metal
            via_res: 8.0,
        }
    }
}

/// Per-transistor geometry and LDE ground truth (Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceGeom {
    /// Source diffusion area, m².
    pub sa: f64,
    /// Drain diffusion area, m².
    pub da: f64,
    /// Source diffusion perimeter, m.
    pub sp: f64,
    /// Drain diffusion perimeter, m.
    pub dp: f64,
    /// The eight LDE parameters (LOD distances, well proximities, island
    /// extent — see module docs), metres.
    pub lde: [f64; NUM_LDE],
}

/// Full layout ground truth for a circuit.
#[derive(Debug, Clone)]
pub struct LayoutTruth {
    /// Lumped parasitic capacitance per net (farads); `None` for
    /// supply/ground rails, which the paper excludes.
    pub net_cap: Vec<Option<f64>>,
    /// Lumped driver-to-load parasitic resistance per net (ohms); `None`
    /// for rails. The paper's stated future work — implemented here as an
    /// extension target.
    pub net_res: Vec<Option<f64>>,
    /// Geometry per device; `Some` only for MOSFETs.
    pub geom: Vec<Option<DeviceGeom>>,
    /// The placement the truth was derived from.
    pub placement: Placement,
}

impl LayoutTruth {
    /// Capacitance of `net`, if it is a signal net.
    pub fn cap(&self, net: NetId) -> Option<f64> {
        self.net_cap[net.0 as usize]
    }

    /// Lumped resistance of `net`, if it is a signal net.
    pub fn res(&self, net: NetId) -> Option<f64> {
        self.net_res[net.0 as usize]
    }
}

/// Deterministic per-item noise stream: same `(seed, salt, index)` always
/// yields the same factor regardless of extraction order.
fn noise(seed: u64, salt: u64, index: u64, sigma: f64) -> f64 {
    let mixed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index);
    let mut rng = StdRng::seed_from_u64(mixed);
    let z = crate::normal(&mut rng);
    (sigma * z).exp()
}

/// Synthesises a layout for `circuit` and extracts ground-truth labels.
///
/// # Examples
///
/// ```
/// use paragraph_layout::{extract, LayoutConfig};
/// use paragraph_netlist::parse_spice;
///
/// let c = parse_spice("mn out in vss vss nch l=16n nfin=3\n.end\n")?.flatten()?;
/// let truth = extract(&c, &LayoutConfig::default());
/// let out = c.find_net("out").unwrap();
/// assert!(truth.cap(out).unwrap() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn extract(circuit: &Circuit, config: &LayoutConfig) -> LayoutTruth {
    let placement = place(circuit, config.rules);
    let geom = extract_geometry(circuit, &placement, config);
    let (net_cap, net_res) = extract_parasitics(circuit, &placement, config);
    LayoutTruth {
        net_cap,
        net_res,
        geom,
        placement,
    }
}

fn extract_geometry(
    circuit: &Circuit,
    placement: &Placement,
    config: &LayoutConfig,
) -> Vec<Option<DeviceGeom>> {
    let rules = &config.rules;
    let chip_w = rules.row_width;
    let chip_h = placement.num_rows as f64 * rules.row_pitch;

    circuit
        .devices()
        .iter()
        .enumerate()
        .map(|(i, dev)| {
            let DeviceKind::Mosfet { .. } = dev.kind else {
                return None;
            };
            let (island_idx, pos) = placement.island_of[i].expect("mosfet placed in island");
            let island = &placement.islands[island_idx];
            let p = dev.params;
            let w = p.nfin.max(1) as f64 * rules.fin_pitch; // finger width
            let fingers = (p.nf.max(1) * p.multi.max(1)) as f64;

            // Diffusion regions alternate S/D across fingers+1 slots.
            // Internal regions are length diff_ext/2 (between two gates of
            // the same device); end regions are full diff_ext, halved when
            // abutting a neighbour (the paper's Figure 2 SA-vs-DA case).
            let left_shared = island.shared_left[pos];
            let right_shared = island.shared_right(pos);
            let regions = fingers as usize + 1;
            let mut source_len = 0.0;
            let mut drain_len = 0.0;
            let mut source_regions = 0.0;
            let mut drain_regions = 0.0;
            for r in 0..regions {
                // Shared (abutted) ends shrink to the contact landing only;
                // the contrast between shared and unshared diffusion is
                // what makes MTS identification matter (paper Figure 2).
                let len = if r == 0 {
                    if left_shared {
                        rules.diff_ext * 0.3
                    } else {
                        rules.diff_ext
                    }
                } else if r == regions - 1 {
                    if right_shared {
                        rules.diff_ext * 0.3
                    } else {
                        rules.diff_ext
                    }
                } else {
                    rules.diff_ext * 0.5
                };
                if r % 2 == 0 {
                    source_len += len;
                    source_regions += 1.0;
                } else {
                    drain_len += len;
                    drain_regions += 1.0;
                }
            }
            let gn = |salt: u64| noise(config.seed, salt, i as u64, config.geom_sigma);
            let sa = w * source_len * gn(1);
            let da = w * drain_len * gn(2);
            let sp = (source_regions * 2.0 * w + 2.0 * source_len) * gn(3);
            let dp = (drain_regions * 2.0 * w + 2.0 * drain_len) * gn(4);

            // LDE parameters from island / row / chip context.
            let (x, y) = placement.positions[i];
            let own_w = placement.widths[i];
            let island_w: f64 = island
                .devices
                .iter()
                .map(|d| placement.widths[d.0 as usize])
                .sum();
            let left_extent: f64 = island.devices[..pos]
                .iter()
                .map(|d| placement.widths[d.0 as usize])
                .sum::<f64>()
                + rules.diff_ext;
            let right_extent = island_w - left_extent - own_w + 2.0 * rules.diff_ext;
            // LDE noise is heavy-tailed: most devices see moderate layout
            // uncertainty, but a fraction land near floorplan macro edges
            // and deviate wildly. This reproduces the paper's observation
            // that LDE regression keeps a usable R^2 while its MAPE
            // exceeds 100 %.
            let ln = |salt: u64| {
                let outlier = noise(config.seed, salt ^ 0x0F0F, i as u64, 1.0) > 3.0;
                let sigma = if outlier {
                    2.2 * config.lde_sigma
                } else {
                    0.35 * config.lde_sigma
                };
                noise(config.seed, salt, i as u64, sigma)
            };
            // A small floorplan-position perturbation only (position within
            // the row is not predictable from the schematic).
            let pos_frac = ((x / chip_w) + (y / chip_h.max(1e-9))).fract() * 0.3 + 0.85;
            // LDE distances are defined side-symmetrically: *which* side of
            // an island a device lands on is a mirroring/ordering choice
            // the schematic cannot determine, so the left/right asymmetry
            // (captured by left_extent/right_extent above for geometry) is
            // folded into the uncertainty noise, while the expectations
            // track the island structure.
            let half_extent = (left_extent + right_extent - 2.0 * rules.diff_ext).max(0.0) / 2.0;
            let island_n = island.devices.len() as f64;
            let lde = [
                // LOD to the near / far diffusion edge (paper Fig. 2).
                (rules.diff_ext + 2.0 * half_extent) * ln(10),
                (rules.diff_ext + 4.0 * half_extent + own_w * 0.5) * ln(11),
                // Average LOD over fingers.
                (rules.diff_ext + 3.0 * half_extent + own_w / 4.0) * ln(12),
                // Poly spacing (scales with finger count via row crowding).
                rules.poly_pitch * (1.0 + fingers / 2.0) * ln(13),
                // Well-edge proximity: wells wrap each diffusion island
                // with width-dependent enclosure, so the distances track
                // the device and island extents (plus a floorplan
                // perturbation).
                (own_w * 0.5 + 2.0 * half_extent + 4.0 * rules.diff_ext) * pos_frac * ln(14),
                (own_w + island_w + 6.0 * rules.diff_ext) * pos_frac * ln(15),
                // Neighbourhood crowding: abutted-neighbour count and the
                // device's own footprint set the local stress environment.
                (2.0 * own_w + island_n * 4.0 * rules.poly_pitch) * ln(16),
                // Island length.
                island_w * ln(17),
            ];
            Some(DeviceGeom {
                sa,
                da,
                sp,
                dp,
                lde,
            })
        })
        .collect()
}

fn extract_parasitics(
    circuit: &Circuit,
    placement: &Placement,
    config: &LayoutConfig,
) -> (Vec<Option<f64>>, Vec<Option<f64>>) {
    // Pin positions per net.
    let mut pins: Vec<Vec<(f64, f64)>> = vec![Vec::new(); circuit.num_nets()];
    // Nets touching >= 2 diodes carry an ESD clamp signature: they are
    // bond-pad nets, whose pad metal adds picofarad-class capacitance.
    let mut diode_pins = vec![0_usize; circuit.num_nets()];
    for (i, dev) in circuit.devices().iter().enumerate() {
        let (x, y) = placement.positions[i];
        let w = placement.widths[i];
        for (term, net) in &dev.conns {
            let dx = match term {
                Terminal::Source | Terminal::Neg | Terminal::Emitter => -w / 4.0,
                Terminal::Drain | Terminal::Pos | Terminal::Collector => w / 4.0,
                _ => 0.0,
            };
            pins[net.0 as usize].push((x + dx, y));
            if dev.kind == DeviceKind::Diode {
                diode_pins[net.0 as usize] += 1;
            }
        }
    }

    let mut caps = Vec::with_capacity(circuit.num_nets());
    let mut ress = Vec::with_capacity(circuit.num_nets());
    for (i, net) in circuit.nets().iter().enumerate() {
        if net.class != NetClass::Signal {
            caps.push(None);
            ress.push(None);
            continue;
        }
        let p = &pins[i];
        if p.is_empty() {
            // Dangling net: just the minimum metal stub.
            caps.push(Some(config.pin_cap));
            ress.push(Some(config.via_res));
            continue;
        }
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in p {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        let hpwl = (max_x - min_x) + (max_y - min_y);
        let fanout = p.len() as f64;
        // Steiner correction: multi-pin nets route longer than HPWL.
        let steiner = 0.6 + 0.4 * fanout.sqrt();
        // Per-pin breakout stubs.
        let stub = 0.15e-6 * fanout;
        let wire_len = hpwl * steiner + stub;
        let mut cap = config.cap_per_m * wire_len + config.pin_cap * fanout;
        if diode_pins[i] >= 2 {
            // Bond-pad net: pad metal + package stub.
            cap += config.pad_cap;
        }
        caps.push(Some(
            cap * noise(config.seed, 99, i as u64, config.cap_sigma),
        ));
        // Lumped driver-to-load resistance: the trunk length divided by
        // the branch count (loads see partially parallel paths), plus the
        // via stacks at both ends.
        let trunk = hpwl * steiner / fanout.sqrt().max(1.0);
        let res = config.res_per_m * trunk + 2.0 * config.via_res;
        ress.push(Some(
            res * noise(config.seed, 113, i as u64, config.cap_sigma),
        ));
    }
    (caps, ress)
}

/// The "designer's estimation" baseline of Table V: a fanout-based rule of
/// thumb with per-designer bias and scatter.
///
/// Real design teams annotate schematics with caps like "0.1 fF per fanout"
/// before layout exists; the paper shows this heuristic *increases*
/// simulation error on parasitic-sensitive metrics. `designer_seed` selects
/// the (biased) designer.
pub fn designer_estimate(circuit: &Circuit, designer_seed: u64) -> Vec<Option<f64>> {
    // A given designer applies a consistent personal fudge factor...
    let bias = noise(designer_seed, 1234, 0, 1.2);
    circuit
        .nets()
        .iter()
        .zip(circuit.fanouts())
        .enumerate()
        .map(|(i, (net, fanout))| {
            if net.class != NetClass::Signal {
                return None;
            }
            let fanout = fanout as f64;
            // ... plus per-net guesswork scatter.
            let scatter = noise(designer_seed, 5678, i as u64, 1.0);
            Some(0.12e-15 * fanout.max(1.0).powf(1.2) * bias * scatter)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragraph_netlist::{DeviceId, DeviceParams, MosPolarity};

    fn series_pair() -> Circuit {
        let mut c = Circuit::new("t");
        let (a, mid, b, g1, g2, vss) = (
            c.net("a"),
            c.net("mid"),
            c.net("b"),
            c.net("g1"),
            c.net("g2"),
            c.net("vss"),
        );
        c.add_mosfet(
            "m1",
            MosPolarity::Nmos,
            false,
            mid,
            g1,
            a,
            vss,
            DeviceParams::default(),
        );
        c.add_mosfet(
            "m2",
            MosPolarity::Nmos,
            false,
            b,
            g2,
            mid,
            vss,
            DeviceParams::default(),
        );
        c
    }

    fn noiseless() -> LayoutConfig {
        LayoutConfig {
            cap_sigma: 0.0,
            geom_sigma: 0.0,
            lde_sigma: 0.0,
            ..LayoutConfig::default()
        }
    }

    #[test]
    fn shared_drain_is_smaller_than_unshared_source() {
        // Paper Figure 2: device A's shared drain diffusion is half its
        // unshared source diffusion.
        let c = series_pair();
        let truth = extract(&c, &noiseless());
        let g1 = truth.geom[0].unwrap();
        // m1: source on 'a' (unshared end), drain on 'mid' (shared).
        assert!(g1.da < g1.sa, "shared drain {} !< source {}", g1.da, g1.sa);
        assert!((g1.da / g1.sa - 0.3).abs() < 1e-9);
    }

    #[test]
    fn lod_grows_with_island_size() {
        // A device inside a series chain has larger LOD expectations than
        // an isolated device (more diffusion around it).
        let chained = series_pair();
        let chained_truth = extract(&chained, &noiseless());
        let mut solo = Circuit::new("solo");
        let (d, g, s, vss) = (solo.net("d"), solo.net("g"), solo.net("s"), solo.net("vss"));
        solo.add_mosfet(
            "m1",
            MosPolarity::Nmos,
            false,
            d,
            g,
            s,
            vss,
            DeviceParams::default(),
        );
        let solo_truth = extract(&solo, &noiseless());
        let chained_lde = chained_truth.geom[0].unwrap().lde;
        let solo_lde = solo_truth.geom[0].unwrap().lde;
        // Near-edge, far-edge, and island-length LDEs all grow.
        assert!(chained_lde[0] > solo_lde[0]);
        assert!(chained_lde[1] > solo_lde[1]);
        assert!(chained_lde[7] > solo_lde[7]);
    }

    #[test]
    fn rails_have_no_cap() {
        let c = series_pair();
        let truth = extract(&c, &LayoutConfig::default());
        let vss = c.find_net("vss").unwrap();
        assert_eq!(truth.cap(vss), None);
        let a = c.find_net("a").unwrap();
        assert!(truth.cap(a).unwrap() > 0.0);
    }

    #[test]
    fn higher_fanout_means_more_cap() {
        // One net with fanout 2 vs a net with fanout 8 spread over devices.
        let mut c = Circuit::new("t");
        let big = c.net("big");
        let vss = c.net("vss");
        for i in 0..8 {
            let g = c.net(format!("g{i}"));
            c.add_mosfet(
                format!("m{i}"),
                MosPolarity::Nmos,
                false,
                big,
                g,
                vss,
                vss,
                DeviceParams {
                    nf: 2,
                    ..DeviceParams::default()
                },
            );
        }
        let truth = extract(&c, &noiseless());
        let big_cap = truth.cap(big).unwrap();
        let small_cap = truth.cap(c.find_net("g0").unwrap()).unwrap();
        assert!(big_cap > 3.0 * small_cap, "{big_cap} vs {small_cap}");
    }

    #[test]
    fn noise_is_deterministic() {
        let c = series_pair();
        let cfg = LayoutConfig::default();
        let t1 = extract(&c, &cfg);
        let t2 = extract(&c, &cfg);
        assert_eq!(t1.net_cap, t2.net_cap);
        let a = |t: &LayoutTruth| t.geom[0].unwrap().sa;
        assert_eq!(a(&t1), a(&t2));
    }

    #[test]
    fn different_seeds_differ() {
        let c = series_pair();
        let t1 = extract(
            &c,
            &LayoutConfig {
                seed: 1,
                ..LayoutConfig::default()
            },
        );
        let t2 = extract(
            &c,
            &LayoutConfig {
                seed: 2,
                ..LayoutConfig::default()
            },
        );
        let a = c.find_net("a").unwrap();
        assert_ne!(t1.cap(a), t2.cap(a));
    }

    #[test]
    fn more_fingers_more_diffusion_area() {
        let mut c = Circuit::new("t");
        let (d1, d2, g, vss) = (c.net("d1"), c.net("d2"), c.net("g"), c.net("vss"));
        c.add_mosfet(
            "small",
            MosPolarity::Nmos,
            false,
            d1,
            g,
            vss,
            vss,
            DeviceParams {
                nf: 1,
                ..DeviceParams::default()
            },
        );
        c.add_mosfet(
            "bigger",
            MosPolarity::Nmos,
            false,
            d2,
            g,
            vss,
            vss,
            DeviceParams {
                nf: 8,
                ..DeviceParams::default()
            },
        );
        let truth = extract(&c, &noiseless());
        let small = truth.geom[0].unwrap();
        let big = truth.geom[1].unwrap();
        assert!(big.sa + big.da > 2.0 * (small.sa + small.da));
    }

    #[test]
    fn passives_have_no_geometry() {
        let mut c = Circuit::new("t");
        let (a, b) = (c.net("a"), c.net("b"));
        c.add_resistor("r1", a, b, 1e3, 1e-6);
        let truth = extract(&c, &LayoutConfig::default());
        assert_eq!(truth.geom[0], None);
    }

    #[test]
    fn designer_estimate_covers_signal_nets_only() {
        let c = series_pair();
        let est = designer_estimate(&c, 42);
        let vss = c.find_net("vss").unwrap();
        assert_eq!(est[vss.0 as usize], None);
        let mid = c.find_net("mid").unwrap();
        assert!(est[mid.0 as usize].unwrap() > 0.0);
    }

    #[test]
    fn designers_disagree() {
        let c = series_pair();
        let e1 = designer_estimate(&c, 1);
        let e2 = designer_estimate(&c, 2);
        let mid = c.find_net("mid").unwrap().0 as usize;
        assert_ne!(e1[mid], e2[mid]);
    }

    #[test]
    fn geom_for_every_mosfet() {
        let c = series_pair();
        let truth = extract(&c, &LayoutConfig::default());
        for i in 0..c.num_devices() {
            assert!(truth.geom[DeviceId(i as u32).0 as usize].is_some());
        }
    }
}

#[cfg(test)]
mod resistance_tests {
    use super::*;
    use paragraph_netlist::{Circuit, DeviceParams, MosPolarity};

    fn noiseless() -> LayoutConfig {
        LayoutConfig {
            cap_sigma: 0.0,
            geom_sigma: 0.0,
            lde_sigma: 0.0,
            ..LayoutConfig::default()
        }
    }

    #[test]
    fn rails_have_no_resistance() {
        let mut c = Circuit::new("t");
        let (a, g, vss) = (c.net("a"), c.net("g"), c.net("vss"));
        c.add_mosfet(
            "m1",
            MosPolarity::Nmos,
            false,
            a,
            g,
            vss,
            vss,
            DeviceParams::default(),
        );
        let truth = extract(&c, &LayoutConfig::default());
        assert_eq!(truth.res(vss), None);
        assert!(truth.res(a).unwrap() > 0.0);
    }

    #[test]
    fn longer_nets_have_more_resistance() {
        // A net spanning many devices has a longer trunk than a local one.
        let mut c = Circuit::new("t");
        let far = c.net("far");
        let vss = c.net("vss");
        for i in 0..30 {
            let g = c.net(format!("g{i}"));
            c.add_mosfet(
                format!("m{i}"),
                MosPolarity::Nmos,
                false,
                far,
                g,
                vss,
                vss,
                DeviceParams {
                    nf: 8,
                    ..DeviceParams::default()
                },
            );
        }
        let truth = extract(&c, &noiseless());
        let far_res = truth.res(far).unwrap();
        let local_res = truth.res(c.find_net("g0").unwrap()).unwrap();
        assert!(far_res > 2.0 * local_res, "{far_res} vs {local_res}");
    }

    #[test]
    fn resistance_includes_via_floor() {
        let cfg = noiseless();
        let mut c = Circuit::new("t");
        let (a, g, vss) = (c.net("a"), c.net("g"), c.net("vss"));
        c.add_mosfet(
            "m1",
            MosPolarity::Nmos,
            false,
            a,
            g,
            vss,
            vss,
            DeviceParams::default(),
        );
        let truth = extract(&c, &cfg);
        assert!(truth.res(a).unwrap() >= 2.0 * cfg.via_res);
    }
}
