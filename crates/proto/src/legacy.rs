//! `Mode`, a uniform model decision by its old name, which `benchmark/`
//! passes; its first change deletes this module.

use mc_model::{ModelAssignment, ProcModel};

use crate::config::{IntoModels, Substrate};

/// One of the paper's four memories for every process.
#[allow(missing_docs)]
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Mode {
    Pram,
    Causal,
    Mixed,
    Sc,
}

impl From<Mode> for ProcModel {
    fn from(mode: Mode) -> ProcModel {
        match mode {
            Mode::Pram => ProcModel::PRAM,
            Mode::Causal => ProcModel::CAUSAL,
            Mode::Mixed => ProcModel::MIXED,
            Mode::Sc => ProcModel::SC,
        }
    }
}

impl IntoModels for Mode {
    fn into_models(self, nprocs: usize) -> ModelAssignment {
        ProcModel::from(self).into_models(nprocs)
    }
}

impl From<Mode> for Substrate {
    fn from(mode: Mode) -> Substrate {
        match mode {
            Mode::Pram => Substrate::Fifo,
            Mode::Causal | Mode::Mixed => Substrate::Vectors,
            Mode::Sc => Substrate::Server,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DsmConfig;
    use mc_model::ModelSpec;

    /// The assignments the old `DsmConfig::new(nprocs, mode)` built, and
    /// the substrate each ran on.
    #[test]
    fn each_mode_keeps_its_assignment_and_substrate() {
        for (mode, models, substrate) in [
            (Mode::Pram, ModelAssignment::uniform(3, ModelSpec::PRAM), Substrate::Fifo),
            (Mode::Causal, ModelAssignment::uniform(3, ModelSpec::CAUSAL), Substrate::Vectors),
            (Mode::Mixed, ModelAssignment::mixed(3), Substrate::Vectors),
            (Mode::Sc, ModelAssignment::uniform(3, ModelSpec::SC), Substrate::Server),
        ] {
            let old = DsmConfig::new(3, mode);
            let new = DsmConfig::new(3, models.clone());
            assert_eq!(*old.models(), models, "{mode:?}");
            assert_eq!(*new.models(), models, "{mode:?}");
            assert_eq!(old.substrate(), substrate, "{mode:?}");
            assert_eq!(new.substrate(), substrate, "{mode:?}");
            assert_eq!(Substrate::from(mode), substrate, "{mode:?}");
        }
    }
}
