let () =
  Alcotest.run "rar"
    [
      ("util", Test_util.suite);
      ("netlist", Test_netlist.suite);
      ("flow", Test_flow.suite);
      ("fig4", Test_fig4.suite);
      ("liberty", Test_liberty.suite);
      ("sta", Test_sta.suite);
      ("retime", Test_retime.suite);
      ("vl", Test_vl.suite);
      ("sim", Test_sim.suite);
      ("circuits", Test_circuits.suite);
      ("convert", Test_convert.suite);
      ("engine", Test_engine.suite);
      ("report", Test_report.suite);
      ("extensions", Test_extensions.suite);
      ("resilience", Test_resilience.suite);
      ("obs", Test_obs.suite);
      ("eco", Test_eco.suite);
      ("serve", Test_serve.suite);
    ]
