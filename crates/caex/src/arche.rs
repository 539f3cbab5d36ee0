//! The Arche resolution model (§4.4's related-work comparison),
//! executable.
//!
//! Arche [Issarny et al.] lets a *multi-function call* invoke all `N`
//! implementations of one type; exceptions "propagated from several
//! objects … of the same type" are passed to a programmer-supplied
//! **resolution function** which returns the single "concerted"
//! exception, handled **in the context of the calling object**.
//!
//! The paper's critique, which this module makes testable:
//!
//! - Arche's model fits NVP-type schemes (N-version programming:
//!   replicated implementations of one type, §2.1) but
//! - it "is not suitable for cooperative concurrency and recovery of
//!   several objects with different types": the callees take no part in
//!   recovery (only the *caller* handles the concerted exception — no
//!   cooperative handlers, no nested actions, no abortion machinery),
//!   and
//! - resolution is by an arbitrary function, not a declared exception
//!   tree — though a tree can be *used* as that function, which is how
//!   the two models meet (see the tests).

use caex_tree::{Exception, ExceptionTree};
use std::fmt;

type Implementation<I, O> = Box<dyn FnMut(I) -> Result<O, Exception> + Send>;

/// Outcome of a multi-function call whose implementations all
/// succeeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallOutputs<O> {
    /// One output per implementation, in registration order.
    pub outputs: Vec<O>,
}

/// An Arche-style multi-function call over `N` implementations of one
/// type. See the [module docs](self).
pub struct MultiCall<I, O> {
    implementations: Vec<Implementation<I, O>>,
}

impl<I, O> fmt::Debug for MultiCall<I, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiCall")
            .field("implementations", &self.implementations.len())
            .finish()
    }
}

impl<I, O> Default for MultiCall<I, O> {
    fn default() -> Self {
        MultiCall {
            implementations: Vec::new(),
        }
    }
}

impl<I: Clone, O> MultiCall<I, O> {
    /// Creates an empty multi-call.
    #[must_use]
    pub fn new() -> Self {
        MultiCall::default()
    }

    /// Registers one implementation of the called type.
    pub fn implementation<F>(&mut self, body: F) -> &mut Self
    where
        F: FnMut(I) -> Result<O, Exception> + Send + 'static,
    {
        self.implementations.push(Box::new(body));
        self
    }

    /// Number of registered implementations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.implementations.len()
    }

    /// `true` if no implementations are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.implementations.is_empty()
    }

    /// The multi-function call: invokes every implementation on (a
    /// clone of) `input`. If all succeed, their outputs are returned.
    /// If any raised, `resolution` — Arche's programmer-supplied
    /// function — receives *all* raised exceptions and its concerted
    /// exception is returned as the `Err` for the **caller** to handle
    /// (the callees perform no recovery of their own).
    ///
    /// # Errors
    ///
    /// The concerted exception, when any implementation raised.
    ///
    /// # Panics
    ///
    /// Panics if no implementations are registered.
    pub fn call<R>(&mut self, input: I, resolution: R) -> Result<CallOutputs<O>, Exception>
    where
        R: FnOnce(&[Exception]) -> Exception,
    {
        assert!(!self.implementations.is_empty(), "no implementations");
        let mut outputs = Vec::with_capacity(self.implementations.len());
        let mut raised = Vec::new();
        for implementation in &mut self.implementations {
            match implementation(input.clone()) {
                Ok(o) => outputs.push(o),
                Err(exc) => raised.push(exc),
            }
        }
        if raised.is_empty() {
            Ok(CallOutputs { outputs })
        } else {
            Err(resolution(&raised))
        }
    }
}

/// Adapts an exception tree into an Arche resolution function: the
/// concerted exception is the tree's least covering ancestor — showing
/// the two models agree on *what* to resolve to while differing on
/// *who recovers*.
///
/// # Examples
///
/// ```
/// use caex::arche::tree_resolution;
/// use caex_tree::{aircraft_tree, Exception};
///
/// let tree = aircraft_tree();
/// let left = tree.id_of("left_engine_exception").unwrap();
/// let right = tree.id_of("right_engine_exception").unwrap();
/// let resolve = tree_resolution(&tree);
/// let concerted = resolve(&[Exception::new(left), Exception::new(right)]);
/// assert_eq!(
///     tree.name(concerted.id()).unwrap(),
///     "emergency_engine_loss_exception"
/// );
/// ```
pub fn tree_resolution(tree: &ExceptionTree) -> impl Fn(&[Exception]) -> Exception + '_ {
    move |raised: &[Exception]| {
        let id = tree
            .resolve_occurrences(raised.iter())
            .expect("raised set is non-empty and from this tree");
        Exception::new(id).with_origin("arche resolution function")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caex_tree::{aircraft_tree, ExceptionId};

    #[test]
    fn all_implementations_succeeding_returns_outputs() {
        let mut call: MultiCall<i32, i32> = MultiCall::new();
        call.implementation(|x| Ok(x * 2))
            .implementation(|x| Ok(x * 2 + 1));
        let out = call.call(10, |_| unreachable!()).unwrap();
        assert_eq!(out.outputs, vec![20, 21]);
    }

    #[test]
    fn concerted_exception_goes_to_the_caller_only() {
        // The paper's structural point: handlers run in the CALLER's
        // context, never in the implementations. We count handler
        // activations to prove it.
        let tree = aircraft_tree();
        let left = tree.id_of("left_engine_exception").unwrap();
        let right = tree.id_of("right_engine_exception").unwrap();
        let emergency = tree.id_of("emergency_engine_loss_exception").unwrap();

        let mut call: MultiCall<(), ()> = MultiCall::new();
        call.implementation(move |()| Err(Exception::new(left)))
            .implementation(move |()| Err(Exception::new(right)))
            .implementation(|()| Ok(()));

        let concerted = call
            .call((), tree_resolution(&tree))
            .expect_err("exceptions were raised");
        // The caller gets the concerted exception to handle alone; the
        // model offers the callees no handler to run (contrast with the
        // engine tests, where every participant starts one).
        assert_eq!(concerted.id(), emergency);
    }

    #[test]
    fn custom_resolution_functions_are_arbitrary() {
        // Unlike the statically declared tree, Arche's function is free
        // code — here it just picks the highest id, which (as the
        // priority ablation shows) need not cover the others.
        let mut call: MultiCall<(), ()> = MultiCall::new();
        call.implementation(|()| Err(Exception::new(ExceptionId::new(2))))
            .implementation(|()| Err(Exception::new(ExceptionId::new(3))));
        let err = call
            .call((), |raised| {
                raised
                    .iter()
                    .max_by_key(|e| e.id())
                    .expect("non-empty")
                    .clone()
            })
            .unwrap_err();
        assert_eq!(err.id(), ExceptionId::new(3));
    }

    #[test]
    fn nvp_shape_is_expressible() {
        // §4.4: Arche "can be used for NVP-type schemes": N replicas of
        // one function; failures become exceptions the caller resolves.
        let mut call: MultiCall<u32, u32> = MultiCall::new();
        call.implementation(|x| Ok(x + 1))
            .implementation(|x| Ok(x + 1))
            .implementation(|_| Err(Exception::new(ExceptionId::ROOT)));
        let err = call.call(5, |raised| raised[0].clone()).unwrap_err();
        assert_eq!(err.id(), ExceptionId::ROOT);
        // Whereas what Arche cannot express — O2 aborting a nested
        // action and signalling into a containing one, belated
        // participants, per-participant handlers — has no counterpart
        // in this API at all: the type system of the model is the
        // paper's argument, exercised by the full engine tests instead.
    }

    #[test]
    #[should_panic(expected = "no implementations")]
    fn empty_call_panics() {
        let mut call: MultiCall<(), ()> = MultiCall::new();
        let _ = call.call((), |_| unreachable!());
    }
}
