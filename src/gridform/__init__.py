"""Pattern formation for anonymous oblivious robots on the infinite grid."""
