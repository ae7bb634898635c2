//! Hierarchical netlists: subcircuit definitions, instances, and flattening.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::circuit::{classify_net_name, Circuit, NetClass, NetId, Terminal};

/// An instantiation of a subcircuit inside another subcircuit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instance {
    /// Instance name (the `X...` prefix in SPICE).
    pub name: String,
    /// Name of the subcircuit being instantiated.
    pub subckt: String,
    /// Nets (by name, in the target's port order) the ports bind to.
    pub conns: Vec<String>,
}

/// A subcircuit: a port list, a flat body of devices, and child instances.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Subckt {
    /// Subcircuit name.
    pub name: String,
    /// Ordered port net names.
    pub ports: Vec<String>,
    /// Devices and local nets.
    pub circuit: Circuit,
    /// Child subcircuit instances.
    pub instances: Vec<Instance>,
}

/// A hierarchical netlist: a set of subcircuits plus top-level content.
///
/// # Examples
///
/// ```
/// use paragraph_netlist::{Circuit, DeviceParams, MosPolarity, Netlist, Subckt, Instance};
///
/// let mut inv = Circuit::new("inv");
/// let (i, o, vdd, vss) = (inv.net("in"), inv.net("out"), inv.net("vdd"), inv.net("vss"));
/// inv.add_mosfet("mp", MosPolarity::Pmos, false, o, i, vdd, vdd, DeviceParams::default());
/// inv.add_mosfet("mn", MosPolarity::Nmos, false, o, i, vss, vss, DeviceParams::default());
///
/// let mut netlist = Netlist::new("chain");
/// netlist.add_subckt(Subckt {
///     name: "inv".into(),
///     ports: vec!["in".into(), "out".into()],
///     circuit: inv,
///     instances: vec![],
/// });
/// netlist.top.instances.push(Instance {
///     name: "x0".into(), subckt: "inv".into(),
///     conns: vec!["a".into(), "b".into()],
/// });
/// netlist.top.instances.push(Instance {
///     name: "x1".into(), subckt: "inv".into(),
///     conns: vec!["b".into(), "c".into()],
/// });
/// let flat = netlist.flatten().unwrap();
/// assert_eq!(flat.num_devices(), 4);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Netlist {
    /// Subcircuit definitions, in declaration order.
    pub subckts: Vec<Subckt>,
    /// Top-level devices and instances.
    pub top: Subckt,
}

/// Error returned by [`Netlist::flatten`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlattenError {
    /// An instance references an unknown subcircuit.
    UnknownSubckt {
        /// Offending instance name.
        instance: String,
        /// The missing definition.
        subckt: String,
    },
    /// Port/connection count mismatch.
    PortMismatch {
        /// Offending instance name.
        instance: String,
        /// Ports in the definition.
        expected: usize,
        /// Connections given.
        got: usize,
    },
    /// The hierarchy contains a cycle.
    RecursiveSubckt {
        /// A subcircuit on the cycle.
        subckt: String,
    },
}

impl fmt::Display for FlattenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlattenError::UnknownSubckt { instance, subckt } => {
                write!(
                    f,
                    "instance '{instance}' references unknown subckt '{subckt}'"
                )
            }
            FlattenError::PortMismatch {
                instance,
                expected,
                got,
            } => write!(
                f,
                "instance '{instance}' connects {got} nets but subckt has {expected} ports"
            ),
            FlattenError::RecursiveSubckt { subckt } => {
                write!(f, "recursive subckt '{subckt}'")
            }
        }
    }
}

impl std::error::Error for FlattenError {}

impl Netlist {
    /// Creates a netlist with an empty top level.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        Self {
            subckts: Vec::new(),
            top: Subckt {
                name: name.clone(),
                ports: Vec::new(),
                circuit: Circuit::new(name),
                instances: Vec::new(),
            },
        }
    }

    /// Registers a subcircuit definition.
    pub fn add_subckt(&mut self, subckt: Subckt) {
        self.subckts.push(subckt);
    }

    /// Flattens the hierarchy into a single [`Circuit`], consuming the
    /// netlist (clone it first to keep it).
    ///
    /// Internal nets are renamed `instance/net`; supply and ground nets keep
    /// their global names so rails merge across the hierarchy. Device names
    /// are prefixed the same way.
    ///
    /// A top level that instantiates nothing is already its own flat
    /// form when copying it would rebuild it exactly (always so for
    /// [`crate::parse_spice`] output): it is then moved out rather than
    /// copied device by device.
    ///
    /// # Errors
    ///
    /// Returns a [`FlattenError`] for unknown subcircuits, port-count
    /// mismatches, or recursive hierarchies.
    pub fn flatten(mut self) -> Result<Circuit, FlattenError> {
        if self.top.instances.is_empty() && self.top.circuit.is_rebuilt_by_copy() {
            let mut flat = std::mem::take(&mut self.top.circuit);
            flat.name = std::mem::take(&mut self.top.name);
            return Ok(flat);
        }
        let index: HashMap<&str, usize> = self
            .subckts
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.as_str(), i))
            .collect();
        let mut out = Circuit::new(self.top.name.clone());
        let mut stack = Vec::new();
        self.expand(&self.top, "", &HashMap::new(), &mut out, &index, &mut stack)?;
        Ok(out)
    }

    /// Adds `subckt`'s devices, and recursively its instances', to
    /// `out`. `port_map` binds each port name to the flat net it
    /// connects to; `prefix` is the instance path (`x0/u1/`).
    fn expand<'a>(
        &'a self,
        subckt: &'a Subckt,
        prefix: &str,
        port_map: &HashMap<&'a str, NetId>,
        out: &mut Circuit,
        index: &HashMap<&str, usize>,
        stack: &mut Vec<&'a str>,
    ) -> Result<(), FlattenError> {
        if stack.contains(&subckt.name.as_str()) {
            return Err(FlattenError::RecursiveSubckt {
                subckt: subckt.name.clone(),
            });
        }
        stack.push(&subckt.name);

        // Local-net-name -> flat-net-id resolution; `path` is reused for
        // the prefixed names of internal nets.
        let mut path = String::new();
        let mut resolve = |out: &mut Circuit, local: &str| -> NetId {
            if let Some(&id) = port_map.get(local) {
                return id;
            }
            if prefix.is_empty() || classify_net_name(local) != NetClass::Signal {
                return out.net(local); // rails stay global
            }
            path.clear();
            path.push_str(prefix);
            path.push_str(local);
            out.net(&path)
        };

        // Every device kind has at most four terminals.
        let mut conns = [(Terminal::Drain, NetId(0)); 4];
        for dev in subckt.circuit.devices() {
            for (slot, (t, n)) in conns.iter_mut().zip(&dev.conns) {
                *slot = (*t, resolve(out, &subckt.circuit.net_ref(*n).name));
            }
            let name = if prefix.is_empty() {
                dev.name.clone()
            } else {
                format!("{prefix}{}", dev.name)
            };
            out.add_device(name, dev.kind, &conns[..dev.conns.len()], dev.params);
        }

        for inst in &subckt.instances {
            let child_idx =
                *index
                    .get(inst.subckt.as_str())
                    .ok_or_else(|| FlattenError::UnknownSubckt {
                        instance: inst.name.clone(),
                        subckt: inst.subckt.clone(),
                    })?;
            let child = &self.subckts[child_idx];
            if child.ports.len() != inst.conns.len() {
                return Err(FlattenError::PortMismatch {
                    instance: inst.name.clone(),
                    expected: child.ports.len(),
                    got: inst.conns.len(),
                });
            }
            // The instance's connections are local names in *this* scope;
            // resolve them to flat nets first.
            let child_map: HashMap<&str, NetId> = child
                .ports
                .iter()
                .zip(&inst.conns)
                .map(|(port, conn)| (port.as_str(), resolve(out, conn)))
                .collect();
            let child_prefix = format!("{prefix}{}/", inst.name);
            self.expand(child, &child_prefix, &child_map, out, index, stack)?;
        }

        stack.pop();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{DeviceParams, MosPolarity};

    fn inv_subckt() -> Subckt {
        let mut c = Circuit::new("inv");
        let (i, o) = (c.net("in"), c.net("out"));
        let (vdd, vss) = (c.net("vdd"), c.net("vss"));
        c.add_mosfet(
            "mp",
            MosPolarity::Pmos,
            false,
            o,
            i,
            vdd,
            vdd,
            DeviceParams::default(),
        );
        c.add_mosfet(
            "mn",
            MosPolarity::Nmos,
            false,
            o,
            i,
            vss,
            vss,
            DeviceParams::default(),
        );
        Subckt {
            name: "inv".into(),
            ports: vec!["in".into(), "out".into()],
            circuit: c,
            instances: vec![],
        }
    }

    #[test]
    fn two_level_flatten_merges_rails() {
        let mut nl = Netlist::new("chain2");
        nl.add_subckt(inv_subckt());
        nl.top.instances.push(Instance {
            name: "x0".into(),
            subckt: "inv".into(),
            conns: vec!["a".into(), "mid".into()],
        });
        nl.top.instances.push(Instance {
            name: "x1".into(),
            subckt: "inv".into(),
            conns: vec!["mid".into(), "z".into()],
        });
        let flat = nl.flatten().unwrap();
        flat.validate().unwrap();
        assert_eq!(flat.num_devices(), 4);
        // a, mid, z + vdd + vss = 5 nets; rails shared.
        assert_eq!(flat.num_nets(), 5);
        assert!(flat.find_net("vdd").is_some());
        assert_eq!(flat.fanout(flat.find_net("mid").unwrap()), 4);
    }

    #[test]
    fn nested_hierarchy_prefixes_names() {
        let mut nl = Netlist::new("top");
        nl.add_subckt(inv_subckt());
        let buf = Subckt {
            name: "buf".into(),
            ports: vec!["in".into(), "out".into()],
            circuit: Circuit::new("buf"),
            instances: vec![
                Instance {
                    name: "u0".into(),
                    subckt: "inv".into(),
                    conns: vec!["in".into(), "n1".into()],
                },
                Instance {
                    name: "u1".into(),
                    subckt: "inv".into(),
                    conns: vec!["n1".into(), "out".into()],
                },
            ],
        };
        nl.add_subckt(buf);
        nl.top.instances.push(Instance {
            name: "xb".into(),
            subckt: "buf".into(),
            conns: vec!["a".into(), "y".into()],
        });
        let flat = nl.flatten().unwrap();
        assert_eq!(flat.num_devices(), 4);
        assert!(flat.find_net("xb/n1").is_some(), "internal net is prefixed");
        assert!(flat.devices().iter().any(|d| d.name == "xb/u0/mp"));
    }

    #[test]
    fn unknown_subckt_errors() {
        let mut nl = Netlist::new("t");
        nl.top.instances.push(Instance {
            name: "x0".into(),
            subckt: "ghost".into(),
            conns: vec![],
        });
        match nl.flatten() {
            Err(FlattenError::UnknownSubckt { subckt, .. }) => assert_eq!(subckt, "ghost"),
            other => panic!("expected UnknownSubckt, got {other:?}"),
        }
    }

    #[test]
    fn port_mismatch_errors() {
        let mut nl = Netlist::new("t");
        nl.add_subckt(inv_subckt());
        nl.top.instances.push(Instance {
            name: "x0".into(),
            subckt: "inv".into(),
            conns: vec!["only_one".into()],
        });
        assert!(matches!(
            nl.flatten(),
            Err(FlattenError::PortMismatch { .. })
        ));
    }

    #[test]
    fn recursion_detected() {
        let mut nl = Netlist::new("t");
        let mut s = inv_subckt();
        s.instances.push(Instance {
            name: "xr".into(),
            subckt: "inv".into(),
            conns: vec!["in".into(), "out".into()],
        });
        nl.add_subckt(s);
        nl.top.instances.push(Instance {
            name: "x0".into(),
            subckt: "inv".into(),
            conns: vec!["a".into(), "b".into()],
        });
        assert!(matches!(
            nl.flatten(),
            Err(FlattenError::RecursiveSubckt { .. })
        ));
    }
}
