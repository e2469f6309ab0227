//! Reference implementations the integration suites compare `learners`
//! against; test-only, never linked into the library.

pub(crate) mod exact_cart;
