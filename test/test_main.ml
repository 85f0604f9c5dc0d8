let () =
  Alcotest.run "millipage"
    [
      ("prng", Test_prng.suite);
      ("stats", Test_stats.suite);
      ("sim", Test_sim.suite);
      ("memsim", Test_memsim.suite);
      ("net", Test_net.suite);
      ("multiview", Test_multiview.suite);
      ("millipage", Test_millipage.suite);
      ("millipage-extra", Test_millipage_extra.suite);
      ("composed-views", Test_composed.suite);
      ("baselines", Test_baselines.suite);
      ("apps", Test_apps.suite);
      ("gms", Test_gms.suite);
      ("mrc", Test_mrc.suite);
      ("rc", Test_rc.suite);
      ("coherence", Test_coherence.suite);
      ("errors", Test_errors.suite);
      ("tab", Test_tab.suite);
      ("properties", Test_properties.suite);
      ("obs", Test_obs.suite);
      ("faults", Test_faults.suite);
      ("crash", Test_crash.suite);
      ("shard", Test_shard.suite);
      ("mc", Test_mc.suite);
      ("profile", Test_profile.suite);
      ("replicate", Test_replicate.suite);
      ("adaptive", Test_adaptive.suite);
      ("host-set", Test_host_set.suite);
      ("pool", Test_pool.suite);
    ]
