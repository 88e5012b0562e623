//! Reproduction harness for every table and figure of the Edge-PrivLocAd
//! paper (Section VII).
//!
//! Each experiment lives in its own module and returns a structured result
//! so that integration tests can run it at reduced scale and assert the
//! paper's qualitative claims; the `repro` binary runs them at full scale
//! and prints paper-style tables.
//!
//! | Module | Reproduces | Paper claim |
//! |---|---|---|
//! | [`fig3`] | Fig. 3 | location entropy declines with check-ins; 88.8 % of users < 2 |
//! | [`fig4`] | Fig. 4 | case-study attack error: ~200 m (week) → <50 m (year) |
//! | [`fig6`] | Fig. 6 | one-time geo-IND: 75–93 % top-1 within 200 m; defense: <1 % |
//! | [`fig7`] | Fig. 7 | UR at n=10: n-fold ≈ 1.0, post-processing ≈ 0.58, composition ≈ 0.2 |
//! | [`fig8`] | Fig. 8 | minimal UR (α=0.9) grows with n |
//! | [`fig9`] | Fig. 9 | efficacy roughly flat in n thanks to output selection |
//! | [`tables`] | Tables II/III | edge processing time scales ~linearly in users |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auction;
pub mod candgen;
pub mod chaos;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod ledger;
pub mod microbench;
pub mod report;
pub mod scale;
pub mod serve;
pub mod tables;
pub mod verify;
