"""Reference implementations the tests and benchmarks compare the program
against; the program itself never imports them."""
