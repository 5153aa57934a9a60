//! The serving benchmark: the reactor tier driven open-loop in-process,
//! measured end to end from each request's intended send time, and
//! split by layer in a separate traced run. See `NOTES.md`.

pub mod layers;
pub mod loadgen;
pub mod measure;
pub mod report;
pub mod rig;
pub mod run;
pub mod schedule;
pub mod trace;
pub mod verify;
