//! Reference implementations the integration suites compare `learners`
//! against; test-only, never linked into the library.

pub mod exact_cart;
