//! One module per table/figure of the paper's evaluation.

pub mod ablations;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig5;
pub mod fig8_9;
pub mod hbm_validation;
pub mod host_baseline;
pub mod ssd_validation;
pub mod table1;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod width_scaling;
