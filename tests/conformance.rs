//! The conformance suite: every scheme, one line each. The cases and the
//! tags are documented in `smr_testkit::conformance`; each line stamps a
//! module of tests named after the scheme, e.g. `hyaline_s::robustness`.

use ::hyaline::{CrystallineL, CrystallineW, Hyaline, Hyaline1, Hyaline1S, HyalineS};
use smr_baselines::{Ebr, He, Hp, Ibr, Leaky};
use smr_testkit::conformance;

conformance!(hyaline: Hyaline = "Hyaline", [batch, shared, snapshots]);
conformance!(hyaline1: Hyaline1 = "Hyaline-1", [batch, registry, snapshots]);
conformance!(hyaline_s: HyalineS = "Hyaline-S", [batch, eras, robust, seek, shared, snapshots]);
conformance!(hyaline_s_adaptive: HyalineS = "Hyaline-S", [batch, eras, robust, seek, shared, snapshots], adaptive: true);
conformance!(hyaline1_s: Hyaline1S = "Hyaline-1S", [batch, eras, registry, robust, seek, snapshots]);
conformance!(crystalline_l: CrystallineL = "Crystalline-L", [batch, eras, handoff, registry, robust, seek, snapshots]);
conformance!(crystalline_w: CrystallineW = "Crystalline-W", [batch, eras, handoff, registry, robust, seek, snapshots]);
conformance!(epoch: Ebr = "Epoch", [registry, snapshots]);
conformance!(hp: Hp = "HP", [registry, robust, seek]);
conformance!(he: He = "HE", [registry, robust, seek]);
conformance!(ibr: Ibr = "IBR", [registry, robust, snapshots]);
conformance!(leaky: Leaky = "Leaky", leaks);
