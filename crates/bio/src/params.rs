//! The constant parameters of the biological process — Table III verbatim.
//!
//! Prior knowledge about model parameters enters the framework as "the
//! expected value and allowed range of parameter values" (§III-B3): Gaussian
//! mutation draws around the current value and clamps to the exploration
//! bounds; initial populations start at the mean.

/// Prior specification of one constant parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamSpec {
    /// Symbolic name (as written in the paper).
    pub name: &'static str,
    /// Human description from Table III.
    pub description: &'static str,
    /// Prior mean (initial value).
    pub mean: f64,
    /// Lower exploration bound.
    pub min: f64,
    /// Upper exploration bound.
    pub max: f64,
    /// Unit, for display.
    pub unit: &'static str,
}

/// Parameter kind indices. Must match the order of [`PARAMS`].
pub const CUA: u16 = 0;
/// Max growth rate of zooplankton.
pub const CUZ: u16 = 1;
/// Breath (respiration) rate of phytoplankton.
pub const CBRA: u16 = 2;
/// Breath rate of zooplankton.
pub const CBRZ: u16 = 3;
/// Maximum feeding rate.
pub const CMFR: u16 = 4;
/// Death rate of zooplankton.
pub const CDZ: u16 = 5;
/// Half-saturation constant of food.
pub const CFS: u16 = 6;
/// Blue-green optimal temperature.
pub const CBTP1: u16 = 7;
/// Diatom optimal temperature.
pub const CBTP2: u16 = 8;
/// Minimum food concentration.
pub const CFMIN: u16 = 9;
/// Best light for phytoplankton.
pub const CBL: u16 = 10;
/// Half-saturation constant of nitrogen.
pub const CN: u16 = 11;
/// Half-saturation constant of phosphorus.
pub const CP: u16 = 12;
/// Half-saturation constant of silica.
pub const CSI: u16 = 13;
/// Breath multiplier on grazing.
pub const CBMT: u16 = 14;
/// Temperature coefficient for phytoplankton growth.
pub const CPT: u16 = 15;
/// The special kind for revision-introduced random constants
/// ("R denotes a random variable between 0 and 1", Table II).
pub const R_KIND: u16 = 16;

/// Table III, in kind order, with the `R` pseudo-parameter appended.
pub const PARAMS: [ParamSpec; 17] = [
    ParamSpec {
        name: "CUA",
        description: "Max growth rate of phytoplankton",
        mean: 1.89,
        min: 0.1,
        max: 4.0,
        unit: "day^-1",
    },
    ParamSpec {
        name: "CUZ",
        description: "Max growth rate of zooplankton",
        mean: 0.15,
        min: 0.0,
        max: 0.3,
        unit: "day^-1",
    },
    ParamSpec {
        name: "CBRA",
        description: "Breath rate of phytoplankton",
        mean: 0.021,
        min: 0.0,
        max: 0.17,
        unit: "day^-1",
    },
    ParamSpec {
        name: "CBRZ",
        description: "Breath rate of zooplankton",
        mean: 0.05,
        min: 0.0,
        max: 0.2,
        unit: "day^-1",
    },
    ParamSpec {
        name: "CMFR",
        description: "Maximum feeding rate",
        mean: 0.19,
        min: 0.01,
        max: 0.8,
        unit: "day^-1",
    },
    ParamSpec {
        name: "CDZ",
        description: "Death rate of zooplankton",
        mean: 0.04,
        min: 0.01,
        max: 0.1,
        unit: "day^-1",
    },
    ParamSpec {
        name: "CFS",
        description: "Half-saturation constant of food",
        mean: 5.0,
        min: 4.0,
        max: 6.0,
        unit: "ug L^-1",
    },
    ParamSpec {
        name: "CBTP1",
        description: "Blue-green optimal temperature",
        mean: 27.0,
        min: 20.0,
        max: 34.0,
        unit: "degC",
    },
    ParamSpec {
        name: "CBTP2",
        description: "Diatom optimal temperature",
        mean: 5.0,
        min: 1.0,
        max: 20.0,
        unit: "degC",
    },
    ParamSpec {
        name: "CFmin",
        description: "Minimum food concentration",
        mean: 1.0,
        min: 0.1,
        max: 1.9,
        unit: "ug L^-1",
    },
    ParamSpec {
        name: "CBL",
        description: "Best light for phytoplankton",
        mean: 26.78,
        min: 24.0,
        max: 30.0,
        unit: "MJ m^-2 d^-1",
    },
    ParamSpec {
        name: "CN",
        description: "Half-saturation constant of nitrogen",
        mean: 0.0351,
        min: 0.02,
        max: 0.05,
        unit: "mg L^-1",
    },
    ParamSpec {
        name: "CP",
        description: "Half-saturation constant of phosphorus",
        mean: 0.00167,
        min: 0.001,
        max: 0.02,
        unit: "mg L^-1",
    },
    ParamSpec {
        name: "CSI",
        description: "Half-saturation constant of silica",
        mean: 0.00467,
        min: 0.001,
        max: 0.2,
        unit: "mg L^-1",
    },
    ParamSpec {
        name: "CBMT",
        description: "Breath multiplier on grazing",
        mean: 0.04,
        min: 0.01,
        max: 0.07,
        unit: "-",
    },
    ParamSpec {
        name: "CPT",
        description: "Temperature coefficient for phytoplankton growth",
        mean: 0.005,
        min: 0.003,
        max: 0.2,
        unit: "degC^-2",
    },
    ParamSpec {
        name: "R",
        description: "Revision-introduced random constant",
        mean: 0.5,
        min: 0.0,
        max: 1.0,
        unit: "-",
    },
];

/// Number of *calibratable* parameters (excludes the `R` pseudo-kind).
pub const NUM_CALIBRATED: usize = 16;

/// State-variable names: index 0 is phytoplankton biomass, 1 is zooplankton.
pub const STATE_NAMES: [&str; 2] = ["BPhy", "BZoo"];

/// State-variable units (chlorophyll-equivalent biomass concentration).
/// Table III fixes these indirectly: `CFS + BPhy - CFmin` appears in the
/// food-availability term, so the biomasses carry the `ug L^-1` of `CFS`
/// and `CFmin`.
pub const STATE_UNITS: [&str; 2] = ["ug L^-1", "ug L^-1"];

/// Phytoplankton biomass state index.
pub const STATE_BPHY: u8 = 0;
/// Zooplankton biomass state index.
pub const STATE_BZOO: u8 = 1;

/// Look up a parameter spec by kind (including `R`).
pub fn spec(kind: u16) -> &'static ParamSpec {
    &PARAMS[kind as usize]
}

/// The prior mean of `kind`, or `None` for a kind past the river priors
/// (a name table read from a file can list more parameters than there
/// are priors).
pub fn prior_mean(kind: u16) -> Option<f64> {
    PARAMS.get(kind as usize).map(|p| p.mean)
}

/// Look up a kind by name.
pub fn kind_of(name: &str) -> Option<u16> {
    PARAMS.iter().position(|p| p.name == name).map(|i| i as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_table_order() {
        assert_eq!(PARAMS[CUA as usize].name, "CUA");
        assert_eq!(PARAMS[CFMIN as usize].name, "CFmin");
        assert_eq!(PARAMS[CPT as usize].name, "CPT");
        assert_eq!(PARAMS[R_KIND as usize].name, "R");
    }

    #[test]
    fn all_means_within_bounds() {
        for p in &PARAMS {
            assert!(
                p.min <= p.mean && p.mean <= p.max,
                "{}: mean {} outside [{}, {}]",
                p.name,
                p.mean,
                p.min,
                p.max
            );
        }
    }

    #[test]
    fn table_iii_spot_checks() {
        assert_eq!(spec(CUA).mean, 1.89);
        assert_eq!(spec(CUA).max, 4.0);
        assert_eq!(spec(CP).mean, 0.00167);
        assert_eq!(spec(CBTP1).min, 20.0);
        assert_eq!(spec(CBTP2).max, 20.0);
        assert_eq!(spec(CBL).mean, 26.78);
    }

    #[test]
    fn kind_lookup() {
        assert_eq!(kind_of("CUA"), Some(CUA));
        assert_eq!(kind_of("R"), Some(R_KIND));
        assert_eq!(kind_of("CXX"), None);
    }

    #[test]
    fn names_unique() {
        for (i, a) in PARAMS.iter().enumerate() {
            for b in &PARAMS[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }
}
