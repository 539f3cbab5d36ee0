//! Coordinated atomic (CA) actions: the structuring framework the
//! resolution algorithm of Romanovsky, Xu & Randell (1996) operates in.
//!
//! A CA action (§3 of the paper) coordinates error recovery between
//! multiple interacting objects by integrating:
//!
//! - **conversations** (joint backward error recovery with acceptance
//!   tests, [`conversation`]),
//! - **transactions** over shared *external atomic objects*
//!   ([`atomic`]), and
//! - **concurrent exception handling** (handlers declared for every
//!   exception of the action, [`HandlerTable`]).
//!
//! This crate provides the *static* structure — actions, nesting,
//! participant sets, handler tables — plus the atomic-object and
//! conversation substrates. The *dynamic* protocol (who tells whom what
//! when an exception is raised) lives in the `caex` crate.
//!
//! # Quick example
//!
//! ```
//! use caex_action::{ActionRegistry, ActionScope};
//! use caex_net::NodeId;
//! use caex_tree::aircraft_tree;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), caex_action::ActionError> {
//! let tree = Arc::new(aircraft_tree());
//! let mut registry = ActionRegistry::new();
//! let a1 = registry.declare(ActionScope::top_level(
//!     "flight-control",
//!     (0..3).map(NodeId::new),
//!     Arc::clone(&tree),
//! ))?;
//! let a2 = registry.declare(ActionScope::nested(
//!     "engine-check",
//!     [NodeId::new(1), NodeId::new(2)],
//!     Arc::clone(&tree),
//!     a1,
//! ))?;
//! assert!(registry.is_nested_within(a2, a1)?);
//! # Ok(())
//! # }
//! ```


pub mod atomic;
pub mod conversation;

mod action;
mod error;
mod handler;
mod registry;

pub use action::{ActionId, ActionScope};
pub use error::ActionError;
pub use handler::{AbortionOutcome, HandlerOutcome, HandlerTable};
pub use registry::ActionRegistry;
