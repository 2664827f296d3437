module dsi/benchmark

go 1.24

require dsi v0.0.0

replace dsi => ../
