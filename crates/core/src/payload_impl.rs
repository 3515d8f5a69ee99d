//! The shared-memory payload channel, re-exported where the runtime's
//! callers have always found it. It lives beside the trait it
//! implements, in [`oaf_nvmeof::payload`].

pub use oaf_nvmeof::payload::ShmPayloadChannel;
